package engine

// Incremental validation: the delta-driven path for watch rounds.
// Configuration changes on the deployment path arrive as small deltas
// against a mostly-stable corpus, so a revalidation round rarely needs
// to re-execute every specification. RunIncremental diffs the new
// snapshot against the previous one, re-runs only the specs whose
// static footprint overlaps the changed keys, and splices the cached
// per-spec verdicts back in execution order. The spliced report matches
// a full run field for field, except SpecsReused (always 0 on a full
// run) and Duration (wall time is wall time).
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
// prevSnap proves them still valid. It falls back to a full Run when
// reuse is unsound or unavailable: no previous state, an untagged or
// stopped previous report, or a stop-on-first policy (a truncated run
// has no complete verdict set to splice from, and its stop point depends
// on global execution order).
func (e *Engine) RunIncremental(prog *compiler.Program, prevSnap *config.Snapshot, prevRep *report.Report) *report.Report {
	return e.RunIncrementalContext(context.Background(), prog, prevSnap, prevRep)
}

// RunIncrementalContext is RunIncremental under a caller-supplied
// context. Every branch executes its specs through runSpecs, so the
// full fallback, the all-rerun case and a re-run subset all stop under
// the same cancellation contract. An interrupted previous report is
// never spliced from (its verdict set is incomplete), and an interrupted
// re-run yields a partial report marked Interrupted without splicing — a
// partial splice would claim reuse it cannot justify.
func (e *Engine) RunIncrementalContext(ctx context.Context, prog *compiler.Program, prevSnap *config.Snapshot, prevRep *report.Report) *report.Report {
	if e.Opts.Interpret {
		return e.RunContext(ctx, prog)
	}
	start := time.Now()
	e.begin(ctx, prog)
	p := plan.For(prog)
	rerun := allSpecs(prog)
	splice := prevSnap != nil && prevRep != nil && !prevRep.Stopped && !prevRep.Interrupted &&
		prevRep.Tagged() && !e.Opts.StopOnFirst
	if splice {
		// Partition via the footprint index: a spec re-runs when it is
		// dynamic, when any changed key matches its footprint, when the
		// previous report holds no verdict for it, or when its previous
		// verdict was an error. Errored verdicts are never reused: a spec
		// can error transiently (a panicking plug-in, an injected fault, a
		// resource blip) with no configuration delta to trigger a re-run,
		// and caching the error would pin it forever.
		delta := e.snap.Diff(prevSnap)
		rerun = rerun[:0]
		for i, n := range p.Specs {
			fp := n.Footprint()
			if o, cached := prevRep.Outcome(i); !cached || o.Errored || fp.Dynamic || delta.OverlapsAny(fp.Patterns) {
				rerun = append(rerun, i)
			}
		}
	}

	if splice && len(rerun) == 0 {
		// Nothing to re-run — the delta touched no footprint, often because
		// the diff found the snapshots equal. Clone the previous report
		// instead of splicing spec by spec: same bytes, none of the
		// per-spec walk.
		out := prevRep.Clone()
		out.SpecsReused = len(prog.Specs)
		out.Duration = time.Since(start)
		return out
	}

	fresh := e.runSpecs(p, rerun)
	if fresh.Interrupted || len(rerun) == len(prog.Specs) {
		// Either nothing was reusable — no usable previous state, or the
		// delta touched every footprint — and the fresh report is the full
		// one; or the re-run was cut off, and it is returned as-is, partial
		// and marked: a spliced report must account for every spec, and an
		// interrupted subset cannot.
		fresh.Duration = time.Since(start)
		return fresh
	}

	// Splice: walk specs in execution order, taking each one's verdicts
	// from the fresh run or the previous report. Violations and spec
	// errors append in Seq order, which is exactly the order a full run
	// (sequential or merged-parallel) produces.
	out := &report.Report{SpecsReused: len(prog.Specs) - len(rerun)}
	for seq, next := 0, 0; seq < len(prog.Specs); seq++ {
		src := prevRep
		if next < len(rerun) && rerun[next] == seq {
			src = fresh
			next++
		}
		o, _ := src.Outcome(seq)
		out.SpecsRun++
		out.InstancesChecked += o.Instances
		if o.Failed {
			out.SpecsFailed++
		}
		out.Violations = append(out.Violations, src.ViolationsFor(seq)...)
		for _, msg := range src.ErrorsFor(seq) {
			out.AddSpecError(seq, msg)
		}
		out.NoteSpec(seq, o)
	}
	out.Duration = time.Since(start)
	return out
}
