package engine

// Context cancellation and panic isolation: the robustness contract of
// the execution layer. A run under a canceled context stops mid-flight
// with a partial report marked Interrupted and no leaked goroutines; a
// panicking plug-in predicate is contained to a spec-level error with the
// sibling specs' verdicts untouched, identically on both execution paths.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/faultinject"
	"confvalley/internal/plan"
	"confvalley/internal/predicate"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

// ctxHook is called by the ctxhook predicate; tests install a cancel
// func (or any probe) for the duration of one run.
var ctxHook atomic.Value // of func()

func init() {
	predicate.Register(&predicate.Func{
		Name:  "ctxhook",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if h, ok := ctxHook.Load().(func()); ok && h != nil {
				h()
			}
			return true, nil
		},
	})
	predicate.Register(&predicate.Func{
		Name:  "panicboom",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if v.Raw == "boom" {
				panic("predicate exploded on " + v.Raw)
			}
			return true, nil
		},
	})
}

func compileSrc(t *testing.T, src string) *compiler.Program {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

// cancelFixture builds a store and program with nSpecs specs over
// distinct keys, where spec cancelAt's predicate fires the ctxhook. Each
// spec gets a distinct range so the compiler's Figure 4(b) optimization
// cannot merge them into one.
func cancelFixture(t *testing.T, nSpecs, cancelAt int) (*config.Store, *compiler.Program) {
	t.Helper()
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < nSpecs; i++ {
		kv(st, fmt.Sprintf("app.k%d", i), "1")
		if i == cancelAt {
			fmt.Fprintf(&src, "$app.k%d -> ctxhook\n", i)
		} else {
			fmt.Fprintf(&src, "$app.k%d -> int & [0, %d]\n", i, 100+i)
		}
	}
	return st, compileSrc(t, src.String())
}

// assertCancelContract checks an interrupted report against the
// cancellation contract of runSpecs for a run over the given partitions:
// marked Interrupted, no spec error from the cancel, every counted spec
// completed, and within each partition the completed specs form a
// prefix of its ascending index list. It returns the set of completed
// spec positions.
func assertCancelContract(t *testing.T, prog *compiler.Program, rep *report.Report, parts [][]int) map[int]bool {
	t.Helper()
	if !rep.Interrupted {
		t.Fatalf("report not marked Interrupted")
	}
	if len(rep.SpecErrors) != 0 {
		t.Fatalf("cancellation produced spec errors: %v", rep.SpecErrors)
	}
	done := make(map[int]bool)
	for seq := range prog.Specs {
		if _, ok := rep.Outcome(seq); ok {
			done[seq] = true
		}
	}
	if rep.SpecsRun != len(done) {
		t.Fatalf("SpecsRun = %d but %d specs recorded a verdict: a counted spec did not complete", rep.SpecsRun, len(done))
	}
	for _, v := range rep.Violations {
		if !done[v.Seq] {
			t.Fatalf("violation from spec %d, which did not complete", v.Seq)
		}
	}
	for pi, part := range parts {
		cut := false
		for _, j := range part {
			if cut && done[j] {
				t.Fatalf("partition %d %v: spec %d completed after an earlier spec did not (completed: %v)", pi, part, j, done)
			}
			cut = cut || !done[j]
		}
	}
	return done
}

func TestRunContextCancelStopsMidRun(t *testing.T) {
	const nSpecs, cancelAt = 10, 4
	// The subtests keep their interpret=false names; the interpreter's
	// own case is refeval's TestRunCancelStopsAfterPrefix.
	for _, parallel := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("interpret=false/parallel=%d", parallel), func(t *testing.T) {
			st, prog := cancelFixture(t, nSpecs, cancelAt)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctxHook.Store(func() { cancel() })
			defer ctxHook.Store(func() {})

			eng := New(st)
			eng.Opts.Parallel = parallel
			rep := eng.RunContext(ctx, prog)
			parts := eng.partitionSpecs(plan.For(prog), allSpecs(prog), parallel)
			done := assertCancelContract(t, prog, rep, parts)
			// The cancelling spec itself runs to completion, and
			// nothing after it in its own partition starts.
			if !done[cancelAt] {
				t.Fatalf("the spec that cancelled (%d) was not counted: %v", cancelAt, done)
			}
			for _, part := range parts {
				i := sort.SearchInts(part, cancelAt)
				if i == len(part) || part[i] != cancelAt {
					continue
				}
				for _, j := range part[i+1:] {
					if done[j] {
						t.Fatalf("spec %d ran after the cancel in partition %v", j, part)
					}
				}
			}
			if parallel == 1 && rep.SpecsRun != cancelAt+1 {
				t.Fatalf("SpecsRun = %d; cancellation during spec %d should stop after it completes", rep.SpecsRun, cancelAt)
			}
			var b strings.Builder
			rep.Render(&b)
			if !strings.Contains(b.String(), "PARTIAL REPORT") {
				t.Fatalf("render of interrupted report lacks the partial banner:\n%s", b.String())
			}
		})
	}
}

// The incremental entry point honours the caller's context on every
// branch. The all-rerun branch used to restart under a background
// context, so a cancelled caller got a complete, unmarked report.
func TestRunIncrementalContextCancelAllRerun(t *testing.T) {
	const nSpecs = 5
	for _, parallel := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallel=%d", parallel), func(t *testing.T) {
			stA, prog := cancelFixture(t, nSpecs, -1)
			engA := New(stA)
			engA.Opts.Parallel = parallel
			prevRep := engA.Run(prog)
			prevSnap := engA.PinnedSnapshot()

			// Store B changes every key, so every footprint is touched.
			stB := config.NewStore()
			for i := 0; i < nSpecs; i++ {
				kv(stB, fmt.Sprintf("app.k%d", i), "2")
			}
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			engB := New(stB)
			engB.Opts.Parallel = parallel
			rep := engB.RunIncrementalContext(ctx, prog, prevSnap, prevRep)
			assertCancelContract(t, prog, rep, engB.partitionSpecs(plan.For(prog), allSpecs(prog), parallel))
			if rep.SpecsRun != 0 {
				t.Fatalf("pre-cancelled all-rerun incremental run: SpecsRun = %d, want 0", rep.SpecsRun)
			}
		})
	}
}

func TestRunContextPreCanceledRunsNothing(t *testing.T) {
	st, prog := cancelFixture(t, 5, -1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep := New(st).RunContext(ctx, prog)
	if !rep.Interrupted || rep.SpecsRun != 0 || len(rep.Violations) != 0 {
		t.Fatalf("pre-canceled run: %+v", rep)
	}
}

func TestRunContextDeadline(t *testing.T) {
	st, prog := cancelFixture(t, 5, -1)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rep := New(st).RunContext(ctx, prog)
	if !rep.Interrupted {
		t.Fatalf("expired deadline did not interrupt the run")
	}
}

// Cancellation of a parallel run drains every worker before returning
// and leaks no goroutines.
func TestRunContextCancelParallelNoGoroutineLeak(t *testing.T) {
	st, prog := cancelFixture(t, 40, 3)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	ctxHook.Store(func() { cancel() })
	eng := New(st)
	eng.Opts.Parallel = 4
	rep := eng.RunContext(ctx, prog)
	if !rep.Interrupted {
		t.Fatalf("parallel canceled run not marked Interrupted")
	}
	cancel()
	ctxHook.Store(func() {})
	// Workers are joined before RunContext returns; give the runtime's
	// goroutine accounting a moment to settle, then compare.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked across canceled parallel runs: before=%d after=%d", before, after)
	}
}

// A panicking plug-in predicate becomes a spec-level error; the spec's
// partial violations roll back and sibling specs are untouched — on both
// execution paths, which must stay report-identical.
func TestPanickingPredicateIsolated(t *testing.T) {
	st := config.NewStore()
	kv(st, "app.a", "1")
	kv(st, "app.b", "boom")
	kv(st, "app.c", "notanint")
	// Distinct ranges keep the three specs from merging (Figure 4(b)).
	src := "$app.a -> int & [0, 9]\n$app.b -> panicboom\n$app.c -> int & [0, 8]"
	prog := compileSrc(t, src)

	reports := []*report.Report{New(st).Run(prog), refRun(st, prog, refeval.Options{})}
	for i, rep := range reports {
		interpret := i == 1
		if len(rep.SpecErrors) != 1 || !strings.Contains(rep.SpecErrors[0], "panic: predicate exploded on boom") {
			t.Fatalf("interpret=%v: SpecErrors = %v", interpret, rep.SpecErrors)
		}
		if len(rep.Violations) != 1 || rep.Violations[0].Key != "app.c" {
			t.Fatalf("interpret=%v: sibling verdicts disturbed: %v", interpret, rep.Violations)
		}
		if rep.SpecsRun != 3 {
			t.Fatalf("interpret=%v: SpecsRun = %d, want 3", interpret, rep.SpecsRun)
		}
		if o, ok := rep.Outcome(1); !ok || !o.Errored {
			t.Fatalf("interpret=%v: outcome for panicked spec = %+v ok=%v", interpret, o, ok)
		}
	}
	if a, b := normalizedJSON(t, reports[0]), normalizedJSON(t, reports[1]); a != b {
		t.Fatalf("plan and interpreted paths diverge on panic containment:\n%s\nvs\n%s", a, b)
	}
}

// A panic in one partition of a parallel run does not disturb the other
// partitions, and the merged report matches the sequential one.
func TestPanickingPredicateParallel(t *testing.T) {
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < 12; i++ {
		val := "1"
		pred := fmt.Sprintf("int & [0, %d]", 50+i)
		if i == 5 {
			val, pred = "boom", "panicboom"
		}
		kv(st, fmt.Sprintf("app.k%d", i), val)
		fmt.Fprintf(&src, "$app.k%d -> %s\n", i, pred)
	}
	prog := compileSrc(t, src.String())

	seq := New(st).Run(prog)
	par := New(st)
	par.Opts.Parallel = 4
	prep := par.Run(prog)
	if a, b := normalizedJSON(t, seq), normalizedJSON(t, prep); a != b {
		t.Fatalf("parallel panic containment diverges from sequential:\n%s\nvs\n%s", a, b)
	}
	if len(prep.SpecErrors) != 1 {
		t.Fatalf("SpecErrors = %v", prep.SpecErrors)
	}
}

// An errored verdict is never spliced: a spec that errored transiently
// (a panicking plug-in with no configuration delta) re-runs on the next
// incremental round and converges back to a clean report.
func TestIncrementalNeverReusesErroredVerdict(t *testing.T) {
	st := config.NewStore()
	kv(st, "app.a", "1")
	kv(st, "app.b", "2")
	hook := faultinject.PanicOnNth(1, "transient plug-in failure")
	ctxHook.Store(func() { hook() })
	defer ctxHook.Store(func() {})

	prog := compileSrc(t, "$app.a -> int\n$app.b -> ctxhook")
	eng := New(st)
	rep1 := eng.Run(prog)
	if len(rep1.SpecErrors) != 1 || !strings.Contains(rep1.SpecErrors[0], "transient plug-in failure") {
		t.Fatalf("round 1 did not capture the transient panic: %v", rep1.SpecErrors)
	}
	snap1 := eng.PinnedSnapshot()

	// Round 2: nothing changed, but the errored spec must re-run (the
	// hook no longer panics) while the clean spec's verdict is reused.
	rep2 := eng.RunIncremental(prog, snap1, rep1)
	if len(rep2.SpecErrors) != 0 {
		t.Fatalf("round 2 still errored: %v", rep2.SpecErrors)
	}
	if rep2.SpecsReused != 1 {
		t.Fatalf("round 2 SpecsReused = %d, want 1 (the clean spec)", rep2.SpecsReused)
	}
	full := New(st).Run(prog)
	if a, b := normalizedJSON(t, rep2), normalizedJSON(t, full); a != b {
		t.Fatalf("recovered incremental report diverges from full run:\n%s\nvs\n%s", a, b)
	}
}

// Cancellation during an incremental round yields a partial Interrupted
// report and never poisons the retained state: splicing from an
// interrupted report is refused.
func TestIncrementalInterruptedNotSpliced(t *testing.T) {
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < 6; i++ {
		kv(st, fmt.Sprintf("app.k%d", i), "1")
		fmt.Fprintf(&src, "$app.k%d -> int & [0, %d]\n", i, 100+i)
	}
	prog := compileSrc(t, src.String())
	eng := New(st)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial := eng.RunContext(ctx, prog)
	if !partial.Interrupted {
		t.Fatalf("canceled full run not Interrupted")
	}
	// Splicing from the interrupted report must fall back to a full run.
	rep := eng.RunIncremental(prog, eng.PinnedSnapshot(), partial)
	if rep.Interrupted || rep.SpecsRun != 6 || rep.SpecsReused != 0 {
		t.Fatalf("incremental from interrupted state: %+v", rep)
	}
}
