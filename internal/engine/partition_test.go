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

// roundRobin deals indexes across n partitions in order: the splitter
// the engine used when over half of a program's costs were unknown,
// kept as the oracle for how LPT deals specs of equal cost.
func roundRobin(idxs []int, n int) [][]int {
	parts := make([][]int, n)
	for i, j := range idxs {
		parts[i%n] = append(parts[i%n], j)
	}
	return parts
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
	// Unknowns get the mean of the known costs.
	got := fillUnknownCosts([]int{0, 1, 2, 3}, costs)
	if got[1] != 15 || got[3] != 15 || got[0] != 10 || got[2] != 20 {
		t.Errorf("costs = %v, want [10 15 20 15]", got)
	}
	// However few are known: 1 of 4 here.
	if got := fillUnknownCosts([]int{0, 1, 2, 3}, []int64{10, plan.CostUnknown, plan.CostUnknown, plan.CostUnknown}); fmt.Sprint(got) != "[10 10 10 10]" {
		t.Errorf("one known cost: %v, want [10 10 10 10]", got)
	}
	// None known: every spec costs 1.
	if got := fillUnknownCosts([]int{0, 1}, []int64{plan.CostUnknown, plan.CostUnknown}); fmt.Sprint(got) != "[1 1]" {
		t.Errorf("no known cost: %v, want [1 1]", got)
	}
	// The subset view matters, not the whole slice: unselected entries
	// neither price the unknowns nor get priced.
	if got := fillUnknownCosts([]int{1, 2}, []int64{10, plan.CostUnknown, 20, plan.CostUnknown}); got[1] != 20 || got[3] != plan.CostUnknown {
		t.Errorf("subset {1, 2}: %v, want spec 1 at 20 and spec 3 untouched", got)
	}
}

// A program with no static cost at all is dealt exactly as round-robin
// dealt it: LPT over equal costs, ties to the lowest partition.
func TestAllDynamicPartitionsDealRoundRobin(t *testing.T) {
	prog := compileSrc(t, dynamicSpecs(23))
	e := New(config.NewStore())
	e.begin(context.Background(), prog)
	p := plan.For(prog)
	for _, n := range []int{2, 3, 4, 8, 23} {
		got, want := e.partitionSpecs(p, allSpecs(prog), n), roundRobin(allSpecs(prog), n)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("n=%d: partitions %v, round-robin %v", n, got, want)
		}
	}
}

// mostlyDynamic reports whether over half of prog's specs have no static
// cost — the programs the engine once dealt round-robin.
func mostlyDynamic(prog *compiler.Program, st *config.Store) bool {
	unknown := 0
	for _, c := range plan.For(prog).Costs(st.Snapshot()) {
		if c == plan.CostUnknown {
			unknown++
		}
	}
	return unknown*2 > len(prog.Specs)
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
// report — parallel runs are byte-identical to the sequential run,
// violations in the same order, not merely the same set. The planner
// prices each spec and bin-packs (LPT); the mostly-dynamic arm adds
// enough Dynamic specs (no static cost) that most specs are priced at
// the mean of the rest.
func TestPropPartitionStrategiesByteIdentical(t *testing.T) {
	partitioners := []struct {
		name    string
		extra   string
		dynamic bool
	}{
		{"lpt", "", false},
		{"mostly-dynamic", dynamicSpecs(30), true},
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
			if got := mostlyDynamic(prog, st); got != pt.dynamic {
				t.Fatalf("seed %d: %s: mostly dynamic = %t, want %t", seed, pt.name, got, pt.dynamic)
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
// report must stay byte-identical to a full run, with costs known and
// mostly unknown: the second arm adds enough Dynamic specs (no static
// cost) to price most specs at the mean of the rest.
func TestIncrementalSubsetUsesPartitioner(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randomCorpus(rng, 20)
	src := randomSuite(rng, 20)
	arms := []struct {
		name, src string
		dynamic   bool
	}{
		{"lpt", src, false},
		{"mostly-dynamic", src + dynamicSpecs(30), true},
	}
	for _, arm := range arms {
		prog, err := compiler.Compile(arm.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := mostlyDynamic(prog, st); got != arm.dynamic {
			t.Fatalf("%s: mostly dynamic = %t, want %t", arm.name, got, arm.dynamic)
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
