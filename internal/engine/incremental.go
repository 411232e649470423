package engine

// Incremental validation: the delta-driven path for watch rounds.
// Configuration changes on the deployment path arrive as small deltas
// against a mostly-stable corpus, so a revalidation round rarely needs
// to re-execute every specification. RunIncremental diffs the new
// snapshot against the previous one, re-runs only the specs whose
// static footprint overlaps the changed keys, and assembles the report
// from the fresh sections of those and the previous report's sections of
// the rest, in execution order (report.Assemble, the function that also
// assembles parallel partitions). The spliced report matches a full run
// field for field, except SpecsReused (always 0 on a full run) and
// Duration (wall time is wall time). A full run is this path with no
// previous state.
//
// The contract assumes the program, environment and engine options are
// unchanged between the previous run and this one — only the store may
// differ. cvcheck's watch mode satisfies this by construction; callers
// that mutate the environment between rounds must fall back to Run.

import (
	"context"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/plan"
	"confvalley/internal/report"
)

// PinnedSnapshot returns the snapshot the engine's most recent Run or
// RunIncremental validated against. Callers retaining state for a later
// incremental round pair it with the run's report.
func (e *Engine) PinnedSnapshot() *config.Snapshot { return e.snap }

// RunIncremental validates prog against the store's current snapshot,
// reusing per-spec verdicts from a previous run where the diff against
// prevSnap proves them still valid. It runs every spec when reuse is
// unsound or unavailable: no previous state, a previous report that is
// not spliceable or stopped, or a stop-on-first policy (a truncated run
// has no complete verdict set to splice from, and its stop point depends
// on global execution order).
func (e *Engine) RunIncremental(prog *compiler.Program, prevSnap *config.Snapshot, prevRep *report.Report) *report.Report {
	return e.RunIncrementalContext(context.Background(), prog, prevSnap, prevRep)
}

// RunIncrementalContext is RunIncremental under a caller-supplied
// context, and the engine's one run path: RunContext calls it with no
// previous state. Every branch executes its specs through runSpecs, so a
// full run, the all-rerun case and a re-run subset all stop under the
// same cancellation contract. An interrupted previous report is never
// spliced from (its sections do not cover the program), and an
// interrupted re-run yields a partial report marked Interrupted without
// splicing — a partial splice would claim reuse it cannot justify.
func (e *Engine) RunIncrementalContext(ctx context.Context, prog *compiler.Program, prevSnap *config.Snapshot, prevRep *report.Report) *report.Report {
	if e.Opts.Interpret {
		return e.RunContext(ctx, prog)
	}
	start := time.Now()
	e.begin(ctx, prog)
	p := plan.For(prog)
	rerun := allSpecs(prog)
	splice := prevSnap != nil && prevRep != nil && !prevRep.Stopped &&
		prevRep.Spliceable(len(prog.Specs)) && !e.Opts.StopOnFirst
	if splice {
		// Partition via the footprint index: a spec re-runs when it is
		// dynamic, when any changed key matches its footprint, or when its
		// previous verdict was an error. Errored verdicts are never reused:
		// a spec can error transiently (a panicking plug-in, an injected
		// fault, a resource blip) with no configuration delta to trigger a
		// re-run, and caching the error would pin it forever.
		delta := e.snap.Diff(prevSnap)
		rerun = rerun[:0]
		for i, n := range p.Specs {
			fp := n.Footprint()
			if o, _ := prevRep.Outcome(i); o.Errored || fp.Dynamic || delta.OverlapsAny(fp.Patterns) {
				rerun = append(rerun, i)
			}
		}
	}

	// Either nothing was reusable — no usable previous state, or the
	// delta touched every footprint — and the fresh report is the full
	// one; or the re-run was cut off, and it is returned as-is, partial
	// and marked: a spliced report must account for every spec, and an
	// interrupted subset cannot. Otherwise splice: each spec's section
	// from the fresh run where it re-ran and from the previous report
	// where it did not, in execution order — exactly the order a full run
	// (sequential or parallel) produces. A delta that touched no
	// footprint re-runs nothing and assembles the previous report alone.
	out := e.runSpecs(p, rerun)
	if len(rerun) < len(prog.Specs) && !out.Interrupted {
		out = report.Assemble(prevRep, out)
		out.SpecsReused = len(prog.Specs) - len(rerun)
	}
	out.Duration = time.Since(start)
	return out
}
