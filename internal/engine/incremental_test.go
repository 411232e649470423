package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"syscall"
	"testing"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// normalizedJSON canonicalizes a report for identity comparison: wall
// time is wall time and SpecsReused is the one field an incremental run
// legitimately adds, so both are zeroed; everything else must match a
// full run byte for byte.
func normalizedJSON(t *testing.T, rep *report.Report) string {
	t.Helper()
	rep.Duration = 0
	rep.SpecsReused = 0
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mutateCorpus models one watch round: the store is rebuilt from
// scratch (no shared submaps) with a small random batch of value
// changes, removals and additions.
func mutateCorpus(rng *rand.Rand, st *config.Store) *config.Store {
	out := config.NewStore()
	for _, in := range st.Instances() {
		switch rng.Intn(25) {
		case 0: // removal
			continue
		case 1: // value change, possibly introducing a violation
			out.Add(&config.Instance{Key: in.Key, Value: in.Value + "x", Source: in.Source})
			continue
		}
		out.Add(&config.Instance{Key: in.Key, Value: in.Value, Source: in.Source})
	}
	// A few additions into spec-covered classes.
	for i := rng.Intn(3); i > 0; i-- {
		c := rng.Intn(25)
		out.Add(&config.Instance{
			Key:    config.K("Zone::znew", fmt.Sprintf("Comp%d", c%7), fmt.Sprintf("P%d", c)),
			Value:  []string{"17", "garbage", "10.0.1.9", ""}[rng.Intn(4)],
			Source: "mutation",
		})
	}
	return out
}

// Metamorphic gate: across randomized mutation sequences over rebuilt
// stores, an incremental run's report is identical to a full run's
// (modulo Duration and SpecsReused), chaining each round's pinned
// snapshot and spliced report into the next. Sequential and parallel.
func TestPropIncrementalMatchesFull(t *testing.T) {
	for _, par := range []int{1, 4} {
		totalReused := 0
		for seed := int64(300); seed < 312; seed++ {
			rng := rand.New(rand.NewSource(seed))
			st := randomCorpus(rng, 25)
			src := randomSuite(rng, 25)
			prog, err := compiler.Compile(src)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}

			opts := Options{Parallel: par}
			seedEng := &Engine{Store: st, Env: simenv.NewSim(), Opts: opts}
			prevRep := seedEng.Run(prog)
			prevSnap := seedEng.PinnedSnapshot()

			for round := 0; round < 4; round++ {
				st = mutateCorpus(rng, st)
				incEng := &Engine{Store: st, Env: simenv.NewSim(), Opts: opts}
				incRep := incEng.RunIncrementalContext(context.Background(), prog, prevSnap, prevRep)
				totalReused += incRep.SpecsReused

				fullRep := (&Engine{Store: st, Env: simenv.NewSim(), Opts: opts}).Run(prog)
				inc, full := normalizedJSON(t, incRep), normalizedJSON(t, fullRep)
				if inc != full {
					t.Fatalf("seed %d round %d parallel=%d: incremental diverged from full run\nincremental: %s\nfull: %s",
						seed, round, par, inc, full)
				}
				prevSnap, prevRep = incEng.PinnedSnapshot(), incRep
			}
		}
		if totalReused == 0 {
			t.Errorf("parallel=%d: no spec was ever reused; the incremental path was never exercised", par)
		}
	}
}

// An unchanged store reuses every spec verdict and still reproduces the
// full report.
func TestIncrementalNoChangeReusesAll(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	st := randomCorpus(rng, 15)
	src := randomSuite(rng, 15)
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st, Env: simenv.NewSim()}
	full := eng.Run(prog)
	inc := (&Engine{Store: st, Env: simenv.NewSim()}).RunIncrementalContext(context.Background(), prog, eng.PinnedSnapshot(), full)
	if inc.SpecsReused != inc.SpecsRun || inc.SpecsRun == 0 {
		t.Fatalf("reused %d of %d specs, want all", inc.SpecsReused, inc.SpecsRun)
	}
	if normalizedJSON(t, inc) != normalizedJSON(t, full) {
		t.Error("no-change incremental run diverged from the seeding full run")
	}
}

// Conservatism for dynamic specs: a spec whose reads are data-dependent
// re-runs every round, even when the changed key lies outside every
// static footprint in the program — so its verdict reflects the new
// data, and it is never counted as reused.
func TestIncrementalDynamicSpecAlwaysReruns(t *testing.T) {
	src := `
$Zone.Comp0.P0 -> int
if ($PickName -> nonempty) {
  $Data::$PickName.Val -> nonempty
}
`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func(dataVal string) *config.Store {
		st := config.NewStore()
		st.Add(&config.Instance{Key: config.K("Zone::z0", "Comp0", "P0"), Value: "5"})
		st.Add(&config.Instance{Key: config.K("PickName"), Value: "a"})
		st.Add(&config.Instance{Key: config.K("Data::a", "Val"), Value: dataVal})
		return st
	}

	st := build("ok")
	seedEng := &Engine{Store: st, Env: simenv.NewSim()}
	prevRep := seedEng.Run(prog)
	if len(prevRep.Violations) != 0 {
		t.Fatalf("seed run: unexpected violations %v", prevRep.Violations)
	}

	// Round 2: only Data::a.Val changes — a key matching no static
	// footprint (the one static spec reads Zone.Comp0.P0; the guarded
	// spec is dynamic, so it advertises no patterns at all).
	st2 := build("")
	inc := (&Engine{Store: st2, Env: simenv.NewSim()}).RunIncrementalContext(context.Background(), prog, seedEng.PinnedSnapshot(), prevRep)
	if inc.SpecsReused != 1 {
		t.Errorf("SpecsReused = %d, want 1 (static spec reused, dynamic re-run)", inc.SpecsReused)
	}
	if len(inc.Violations) != 1 || inc.Violations[0].Key != "Data::a.Val" {
		t.Fatalf("dynamic spec did not see the mutation: violations = %v", inc.Violations)
	}

	full := (&Engine{Store: st2, Env: simenv.NewSim()}).Run(prog)
	if normalizedJSON(t, inc) != normalizedJSON(t, full) {
		t.Error("incremental report diverged from full run")
	}
}

// The guard conditions fall back to a plain full run: stop-on-first
// truncates the verdict set, and a missing previous report leaves
// nothing to splice from. Both still produce correct reports with
// SpecsReused = 0.
func TestIncrementalFallsBackToFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	st := randomCorpus(rng, 10)
	src := randomSuite(rng, 10)
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st, Env: simenv.NewSim()}
	full := eng.Run(prog)

	// Missing previous report.
	inc := (&Engine{Store: st, Env: simenv.NewSim()}).RunIncrementalContext(context.Background(), prog, eng.PinnedSnapshot(), nil)
	if inc.SpecsReused != 0 {
		t.Errorf("nil prevRep: SpecsReused = %d, want 0", inc.SpecsReused)
	}
	if normalizedJSON(t, inc) != normalizedJSON(t, full) {
		t.Error("nil-prevRep fallback diverged from full run")
	}

	// Stop-on-first policy.
	stopEng := &Engine{Store: st, Env: simenv.NewSim(), Opts: Options{StopOnFirst: true}}
	stopFull := stopEng.Run(prog)
	stopInc := (&Engine{Store: st, Env: simenv.NewSim(), Opts: Options{StopOnFirst: true}}).
		RunIncrementalContext(context.Background(), prog, eng.PinnedSnapshot(), full)
	if stopInc.SpecsReused != 0 {
		t.Errorf("StopOnFirst: SpecsReused = %d, want 0", stopInc.SpecsReused)
	}
	if normalizedJSON(t, stopInc) != normalizedJSON(t, stopFull) {
		t.Error("StopOnFirst fallback diverged from full run")
	}
}

// cpuBestOf returns the least CPU time this process spent over three runs
// of f. CPU time rather than wall-clock time: a test binary that shares
// its host with others is descheduled now and then, and that is no cost
// of f.
func cpuBestOf(f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		var before, after syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
			panic(err)
		}
		f()
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
			panic(err)
		}
		d := time.Duration(after.Utime.Nano() + after.Stime.Nano() - before.Utime.Nano() - before.Stime.Nano())
		if best < 0 || d < best {
			best = d
		}
	}
	return best
}

// A splice costs what it copies, not specs × violations: re-running one
// spec of 1,000 against a previous report of 100,000 violations costs
// less CPU time than the full run it replaces, on any host. (Looking
// each spec's verdicts up by scanning the whole previous report reads
// 10⁸ violations here, several full runs' worth.)
func TestSpliceLinearInReport(t *testing.T) {
	const specs, per = 1000, 100
	build := func(changed string) *config.Store {
		st := config.NewStore()
		for s := 0; s < specs; s++ {
			for i := 0; i < per; i++ {
				v := "x"
				if s == specs/2 && i == 0 {
					v = changed
				}
				st.Add(&config.Instance{Key: config.Key{Segs: []config.Seg{
					{Name: fmt.Sprintf("S%d", s), Inst: fmt.Sprintf("i%d", i)}, {Name: "Port"},
				}}, Value: v, Source: "splice"})
			}
		}
		return st
	}
	var src strings.Builder
	for s := 0; s < specs; s++ {
		fmt.Fprintf(&src, "$S%d.Port -> int\n", s)
	}
	prog, err := compiler.CompileWith(src.String(), compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Parallel: 1}
	prevEng := &Engine{Store: build("x"), Env: simenv.NewSim(), Opts: opts}
	prev := prevEng.Run(prog)
	if len(prev.Violations) != specs*per || len(prog.Specs) != specs {
		t.Fatalf("previous run: %d violations of %d specs, want %d of %d", len(prev.Violations), len(prog.Specs), specs*per, specs)
	}
	next := build("y")
	var full, inc *report.Report
	fullCPU := cpuBestOf(func() { full = (&Engine{Store: next, Env: simenv.NewSim(), Opts: opts}).Run(prog) })
	incCPU := cpuBestOf(func() {
		inc = (&Engine{Store: next, Env: simenv.NewSim(), Opts: opts}).RunIncrementalContext(context.Background(), prog, prevEng.PinnedSnapshot(), prev)
	})
	if inc.SpecsReused != specs-1 {
		t.Fatalf("incremental run reused %d specs, want %d", inc.SpecsReused, specs-1)
	}
	if a, b := normalizedJSON(t, full), normalizedJSON(t, inc); a != b {
		t.Fatal("incremental report differs from the full run")
	}
	if incCPU >= fullCPU {
		t.Errorf("splicing 1 re-run spec into %d violations took %v of CPU, the full run %v", specs*per, incCPU, fullCPU)
	}
	t.Logf("full run %v, incremental %v", fullCPU, incCPU)
}
