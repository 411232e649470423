package engine

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/plan"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

func TestEffectiveParallel(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	cases := []struct {
		parallel    int
		stopOnFirst bool
		nspecs      int
		want        int
	}{
		{0, false, 100, procs},  // default: one worker per hardware thread
		{-3, false, 100, procs}, // negative behaves like zero
		{0, true, 100, 1},       // StopOnFirst stays sequential by default
		{4, true, 100, 4},       // ...unless parallelism was asked for explicitly
		{1, false, 100, 1},
		{8, false, 3, 3}, // clamped to spec count
		{8, false, 0, 1},
	}
	for _, c := range cases {
		e := &Engine{Opts: Options{Parallel: c.parallel, StopOnFirst: c.stopOnFirst}}
		if got := e.effectiveParallel(c.nspecs); got != c.want {
			t.Errorf("effectiveParallel(parallel=%d stop=%t nspecs=%d) = %d, want %d",
				c.parallel, c.stopOnFirst, c.nspecs, got, c.want)
		}
	}
}

// Neither splitter may ever produce an empty partition: every partition
// is a goroutine, and a goroutine with no work is wasted.
func TestPartitionSpecsNeverEmpty(t *testing.T) {
	splitters := []struct {
		name  string
		split func(idxs []int, n int) [][]int
	}{
		{"round-robin", roundRobin},
		{"lpt", func(idxs []int, n int) [][]int {
			costs := make([]int64, len(idxs))
			for i := range costs {
				costs[i] = int64(1 + i%5*100) // skewed, so LPT reorders
			}
			return lptPartition(idxs, costs, n)
		}},
	}
	for _, sp := range splitters {
		for _, nspecs := range []int{1, 2, 3, 7, 24} {
			for _, n := range []int{1, 2, 3, 8, 50} {
				idxs := make([]int, nspecs)
				for i := range idxs {
					idxs[i] = i
				}
				wantParts := n
				if wantParts > nspecs {
					wantParts = nspecs
				}
				parts := sp.split(idxs, wantParts)
				if len(parts) != wantParts {
					t.Fatalf("%s nspecs=%d n=%d: %d partitions, want %d", sp.name, nspecs, n, len(parts), wantParts)
				}
				seen := 0
				for _, p := range parts {
					if len(p) == 0 {
						t.Fatalf("%s nspecs=%d n=%d: empty partition", sp.name, nspecs, n)
					}
					seen += len(p)
				}
				if seen != nspecs {
					t.Fatalf("%s nspecs=%d n=%d: %d specs partitioned, want %d", sp.name, nspecs, n, seen, nspecs)
				}
			}
		}
	}
	// partitionSpecs clamps n to the spec count before splitting.
	prog := compileSrc(t, "$a -> int & [0, 1]\n$b -> int & [0, 2]\n$c -> int & [0, 3]")
	e := New(config.NewStore())
	e.begin(context.Background(), prog)
	if parts := e.partitionSpecs(plan.For(prog), allSpecs(prog), 8); len(parts) != 3 {
		t.Fatalf("partitionSpecs(3 specs, n=8) = %d partitions, want 3", len(parts))
	}
}

// LPT must beat round-robin's pathological case — heavyweights landing
// on one partition because their indexes share a residue class — and be
// deterministic, with each partition in ascending order.
func TestLPTPartitionBalance(t *testing.T) {
	const n = 4
	idxs := make([]int, 16)
	costs := make([]int64, 16)
	for i := range idxs {
		idxs[i] = i
		costs[i] = 1
		if i%n == 0 { // indexes 0,4,8,12: all dealt to partition 0 by round-robin
			costs[i] = 1000
		}
	}
	lpt := lptPartition(idxs, costs, n)
	again := lptPartition(idxs, costs, n)
	if fmt.Sprint(lpt) != fmt.Sprint(again) {
		t.Fatalf("lptPartition not deterministic: %v vs %v", lpt, again)
	}
	for _, p := range lpt {
		for i := 1; i < len(p); i++ {
			if p[i] < p[i-1] {
				t.Fatalf("partition not in ascending order: %v", p)
			}
		}
	}
	maxLoad := func(parts [][]int) int64 {
		var max int64
		for _, l := range partitionLoads(parts, costs) {
			if l > max {
				max = l
			}
		}
		return max
	}
	rr := roundRobin(idxs, n)
	if got, worst := maxLoad(lpt), maxLoad(rr); got >= worst {
		t.Errorf("LPT makespan %d not better than round-robin %d", got, worst)
	}
	// 4 heavyweights over 4 partitions: LPT must spread them singly.
	if got := maxLoad(lpt); got > 1003 {
		t.Errorf("LPT makespan %d, want <= 1003 (one heavyweight per partition)", got)
	}
}

// partitionLoads sums estimated cost per partition.
func partitionLoads(parts [][]int, costs []int64) []int64 {
	out := make([]int64, len(parts))
	for i, part := range parts {
		for _, j := range part {
			out[i] += costs[j]
		}
	}
	return out
}

func TestFillUnknownCosts(t *testing.T) {
	costs := []int64{10, plan.CostUnknown, 20, plan.CostUnknown}
	// Half known (2 of 4): the model stays usable, unknowns get the mean.
	got := fillUnknownCosts([]int{0, 1, 2, 3}, costs)
	if got == nil {
		t.Fatal("half-known costs should not force round-robin")
	}
	if got[1] != 15 || got[3] != 15 {
		t.Errorf("unknowns = %d,%d, want mean 15", got[1], got[3])
	}
	if costs[1] != plan.CostUnknown {
		t.Error("input slice was modified")
	}
	// 1 of 4 known: too dynamic, fall back.
	if got := fillUnknownCosts([]int{0, 1, 2, 3}, []int64{10, plan.CostUnknown, plan.CostUnknown, plan.CostUnknown}); got != nil {
		t.Errorf("mostly-unknown costs should return nil, got %v", got)
	}
	// The subset view matters, not the whole slice: selecting only the
	// known entries keeps the model.
	if got := fillUnknownCosts([]int{0, 2}, []int64{10, plan.CostUnknown, 20, plan.CostUnknown}); got == nil {
		t.Error("fully-known subset should keep the cost model")
	}
}

// reportJSON canonicalizes a report for byte-identity comparison: wall
// time is the only field allowed to differ between equivalent runs.
func reportJSON(t *testing.T, rep *report.Report) string {
	t.Helper()
	c := *rep
	c.Duration = 0
	b, err := c.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// dynamicSpecs returns n specs whose footprints are Dynamic, so they have
// no static cost.
func dynamicSpecs(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "if ($Pick%d -> nonempty) {\n  $Data::$Pick%d.Val -> nonempty\n}\n", i, i)
	}
	return b.String()
}

// Metamorphic property: partitioning and its width are invisible in the
// report — LPT and round-robin parallel runs are byte-identical to the
// sequential run, violations in the same order, not merely the same set.
// The planner prices each spec and bin-packs (LPT); the round-robin arm
// adds enough Dynamic specs (no static cost) that the cost model gives
// up and deals round-robin, the only path that still reaches it.
func TestPropPartitionStrategiesByteIdentical(t *testing.T) {
	partitioners := []struct {
		name  string
		extra string
		lpt   bool
	}{
		{"lpt", "", true},
		{"round-robin", dynamicSpecs(30), false},
	}
	for seed := int64(60); seed < 72; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomCorpus(rng, 20)
		src := randomSuite(rng, 20)
		for _, pt := range partitioners {
			prog, err := compiler.Compile(src + pt.extra)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			costs := plan.For(prog).Costs(st.Snapshot())
			if gotLPT := fillUnknownCosts(allSpecs(prog), costs) != nil; gotLPT != pt.lpt {
				t.Fatalf("seed %d: %s: cost model usable = %t, want %t", seed, pt.name, gotLPT, pt.lpt)
			}
			seq := reportJSON(t, (&Engine{Store: st, Env: simenv.NewSim(), Opts: Options{Parallel: 1}}).Run(prog))
			for _, workers := range []int{2, 3, 4, 8} {
				par := reportJSON(t, (&Engine{Store: st, Env: simenv.NewSim(), Opts: Options{Parallel: workers}}).Run(prog))
				if par != seq {
					t.Errorf("seed %d: %s parallel(%d) report differs from sequential\nseq: %s\npar: %s",
						seed, pt.name, workers, seq, par)
				}
			}
		}
	}
}

// The incremental subset path shares the partitioner; its spliced
// report must stay byte-identical to a full run under both splitters.
// The subset path reaches round-robin through the cost model's
// fallback: the second arm adds enough Dynamic specs (no static cost)
// to trigger it.
func TestIncrementalSubsetUsesPartitioner(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randomCorpus(rng, 20)
	src := randomSuite(rng, 20)
	arms := []struct {
		name, src string
		lpt       bool
	}{
		{"lpt", src, true},
		{"round-robin", src + dynamicSpecs(30), false},
	}
	for _, arm := range arms {
		prog, err := compiler.Compile(arm.src)
		if err != nil {
			t.Fatal(err)
		}
		costs := plan.For(prog).Costs(st.Snapshot())
		if gotLPT := fillUnknownCosts(allSpecs(prog), costs) != nil; gotLPT != arm.lpt {
			t.Fatalf("%s: cost model usable = %t, want %t", arm.name, gotLPT, arm.lpt)
		}
		opts := Options{Parallel: 4}
		prev := &Engine{Store: st, Env: simenv.NewSim(), Opts: opts}
		prevRep := prev.Run(prog)
		prevSnap := prev.PinnedSnapshot()

		// Mutate a slice of the corpus so a subset of specs re-runs.
		mutated := mutateCorpus(rng, st)
		full := (&Engine{Store: mutated, Env: simenv.NewSim(), Opts: opts}).Run(prog)
		incEng := &Engine{Store: mutated, Env: simenv.NewSim(), Opts: opts}
		inc := incEng.RunIncremental(prog, prevSnap, prevRep)
		if inc.SpecsReused == 0 {
			t.Fatalf("%s: incremental run reused nothing — subset path not exercised", arm.name)
		}
		fj, ij := reportJSON(t, full), reportJSON(t, inc)
		// SpecsReused legitimately differs; zero it for the comparison.
		fullC, incC := *full, *inc
		fullC.Duration, incC.Duration = 0, 0
		fullC.SpecsReused, incC.SpecsReused = 0, 0
		fb, _ := fullC.JSON()
		ib, _ := incC.JSON()
		if string(fb) != string(ib) {
			t.Errorf("%s: incremental report differs from full run\nfull: %s\ninc: %s", arm.name, fj, ij)
		}
	}
}
