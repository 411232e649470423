// Package engine validates compiled CPL programs against a configuration
// store (Figure 3 of the paper): it executes each program's lowered plan
// over one pinned snapshot, in partitions assembled back into sequential
// order. internal/refeval defines what the plan must compute.
package engine

import (
	"context"
	"sort"
	"sync"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/plan"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// Options tune an engine.
type Options struct {
	// StopOnFirst aborts the run at the first violation (policy
	// on_violation 'stop').
	StopOnFirst bool
	// Parallel > 1 splits the specifications into that many partitions
	// validated concurrently (Table 8's P10 mode); 0 (the zero value) or
	// a negative value uses one partition per hardware thread
	// (runtime.GOMAXPROCS), and 1 forces sequential execution. The
	// partition count is always clamped to the spec count. StopOnFirst
	// runs stay sequential unless Parallel > 1 is set explicitly.
	Parallel int
	// Deprecated: call refeval.Run, the reference interpreter, which this
	// runs sequentially instead of the lowered plan.
	Interpret bool
}

// Engine validates configuration data against compiled programs.
type Engine struct {
	Store *config.Store
	Env   simenv.Env
	Opts  Options

	// snap pins the store's sealed snapshot for the duration of one run,
	// so every partition of a parallel run — and every discovery inside
	// it — reads one consistent, lock-free view even if the store is
	// mutated concurrently (watch-round swaps, live loads).
	snap *config.Snapshot
	// ctx carries the current run's deadline/cancellation.
	ctx context.Context
	// policyStop is the current run's program's on_violation 'stop'
	// policy, kept apart from Opts so that an engine reused for another
	// program does not inherit it.
	policyStop bool
}

// Run evaluates every specification in the program and returns the
// report. The program is lowered to an executable plan once (it owns
// the plan; see internal/plan) and the plan is executed.
func (e *Engine) Run(prog *compiler.Program) *report.Report {
	return e.RunContext(context.Background(), prog)
}

// RunContext is Run under a caller-supplied context: a deadline or
// cancellation stops the run under the contract documented on runSpecs,
// returning the partial report marked Interrupted. All worker goroutines
// of a parallel run observe the same context and drain before RunContext
// returns — cancellation never leaks a goroutine. A full run is an
// incremental run with no previous state.
func (e *Engine) RunContext(ctx context.Context, prog *compiler.Program) *report.Report {
	if e.Opts.Interpret {
		// refeval resolves the program's policy itself: it is the oracle.
		e.begin(ctx, prog)
		return refeval.Run(ctx, e.snap, prog, e.Env, refeval.Options{StopOnFirst: e.Opts.StopOnFirst})
	}
	return e.RunIncrementalContext(ctx, prog, nil, nil)
}

// begin pins what one run holds fixed: the program's stop policy, the
// caller's context and the store's sealed snapshot.
func (e *Engine) begin(ctx context.Context, prog *compiler.Program) {
	e.policyStop = prog.Policies["on_violation"] == "stop"
	e.ctx = ctx
	e.snap = e.Store.Snapshot()
}

// stopOnFirst reports whether the current run stops at its first
// violation: the options say so, or the program's policy does.
func (e *Engine) stopOnFirst() bool { return e.Opts.StopOnFirst || e.policyStop }

// allSpecs lists every spec position of prog in execution order.
func allSpecs(prog *compiler.Program) []int {
	idxs := make([]int, len(prog.Specs))
	for i := range idxs {
		idxs[i] = i
	}
	return idxs
}

// runSpecs is the engine's one spec loop: every entry point — full runs,
// every branch of an incremental run, partition timing — executes specs
// by calling it with the ascending positions of p's specs to run. It
// resolves the worker count and runs one partition inline on the calling
// goroutine or several through runParts (cost-model LPT; see
// partition.go), which assembles their sections in execution order.
//
// It is also the only place a run decides to stop early. The contract:
// a cancelled run returns Interrupted; every spec it counts ran to
// completion (an in-flight spec is rolled back and not counted); the
// cancel itself never produces a spec error; within each partition the
// completed specs are a prefix of that partition's ascending index list
// — with one partition, a prefix of the program. Stop-on-first is a
// sequential policy: a one-partition run ends at the spec that set
// Stopped, while the partitions of an explicitly parallel run do not
// observe each other and run out their lists.
func (e *Engine) runSpecs(p *plan.Plan, idxs []int) *report.Report {
	// One runtime for the whole run, shared by its partitions: read-only
	// but for the compartment numbering table, which has its own lock.
	rt := &plan.Runtime{Snap: e.snap, Env: e.Env, StopOnFirst: e.stopOnFirst(), Ctx: e.ctx}
	ctx := e.ctx
	n := e.effectiveParallel(len(idxs))
	runPart := func(idxs []int, rep *report.Report) {
		for _, j := range idxs {
			if ctx.Err() != nil {
				rep.Interrupted = true
				return
			}
			p.Specs[j].Run(rt, rep)
			if rep.Interrupted || (rep.Stopped && n == 1) {
				return
			}
		}
	}
	if n == 1 {
		rep := &report.Report{}
		runPart(idxs, rep)
		return rep
	}
	return runParts(e.partitionSpecs(p, idxs, n), runPart)
}

// reportPool recycles partition-local reports: a parallel run allocates
// one report per partition per round, assembles from it and drops it, so
// watch loops and service traffic churn violation and section slices at
// a rate the pool absorbs. Only partition-local reports ever enter the
// pool — reports returned to callers are never recycled.
var reportPool = sync.Pool{New: func() any { return new(report.Report) }}

// runParts executes each partition in its own goroutine against its own
// pooled report and assembles their sections in execution order.
func runParts(parts [][]int, runPart func(idxs []int, rep *report.Report)) *report.Report {
	reps := make([]*report.Report, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := reportPool.Get().(*report.Report)
			rep.Reset()
			runPart(parts[i], rep)
			reps[i] = rep
		}(i)
	}
	wg.Wait()
	out := report.Assemble(reps...)
	for _, r := range reps {
		reportPool.Put(r)
	}
	return out
}

// PartitionTimes runs each of n partitions sequentially and reports each
// partition's wall time; cvbench uses it for Table 8's P10 columns
// without depending on the host's core count. Partitions are the ones a
// parallel run would use (see partitionSpecs), clamped to the spec
// count.
func (e *Engine) PartitionTimes(prog *compiler.Program, n int) []time.Duration {
	e.begin(context.Background(), prog)
	p := plan.For(prog)
	seq := *e
	seq.Opts.Parallel = 1
	out := make([]time.Duration, 0, n)
	for _, part := range e.partitionSpecs(p, allSpecs(prog), n) {
		start := time.Now()
		seq.runSpecs(p, part)
		out = append(out, time.Since(start))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
