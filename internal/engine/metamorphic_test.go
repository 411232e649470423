package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// randomCorpus builds a store with nClasses classes of mixed value kinds,
// deliberately including violations of the specs randomSuite writes.
func randomCorpus(rng *rand.Rand, nClasses int) *config.Store {
	st := config.NewStore()
	for c := 0; c < nClasses; c++ {
		comp := fmt.Sprintf("Comp%d", c%7)
		param := fmt.Sprintf("P%d", c)
		n := 3 + rng.Intn(12)
		for i := 0; i < n; i++ {
			var val string
			switch c % 5 {
			case 0: // ints with occasional garbage
				if rng.Intn(8) == 0 {
					val = "garbage"
				} else {
					val = fmt.Sprintf("%d", rng.Intn(100))
				}
			case 1: // IPs with occasional blanks
				if rng.Intn(8) == 0 {
					val = ""
				} else {
					val = fmt.Sprintf("10.0.%d.%d", c%250, 1+rng.Intn(250))
				}
			case 2: // bools
				val = []string{"true", "false", "maybe"}[rng.Intn(3)]
			case 3: // near-constant
				val = "shared-value"
				if rng.Intn(10) == 0 {
					val = "divergent"
				}
			default: // possibly duplicated identifiers
				val = fmt.Sprintf("id-%d", rng.Intn(n))
			}
			st.Add(&config.Instance{
				Key: config.Key{Segs: []config.Seg{
					{Name: "Zone", Inst: fmt.Sprintf("z%d", i%4), Index: i%4 + 1},
					{Name: comp},
					{Name: param},
				}},
				Value:  val,
				Source: "random",
			})
		}
	}
	return st
}

// randomSuite writes one random basic spec per class.
func randomSuite(rng *rand.Rand, nClasses int) string {
	var b strings.Builder
	for c := 0; c < nClasses; c++ {
		dom := fmt.Sprintf("$Zone.Comp%d.P%d", c%7, c)
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&b, "%s -> int\n", dom)
		case 1:
			fmt.Fprintf(&b, "%s -> ip & nonempty\n", dom)
		case 2:
			fmt.Fprintf(&b, "%s -> bool\n", dom)
		case 3:
			fmt.Fprintf(&b, "%s -> [0, 50]\n", dom)
		case 4:
			fmt.Fprintf(&b, "%s -> nonempty & match('id-*') | int\n", dom)
		default:
			fmt.Fprintf(&b, "%s -> {'true', 'false'}\n", dom)
		}
	}
	return b.String()
}

// violationSet canonicalizes a report for comparison: key + message,
// sorted.
func violationSet(rep *report.Report) string {
	items := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		items = append(items, v.Key+"\x00"+v.Message)
	}
	sort.Strings(items)
	return strings.Join(items, "\n")
}

// Metamorphic property: the Figure 4 compiler rewrites must not change
// verdicts — optimized and unoptimized programs agree on every violation.
func TestPropOptimizationPreservesVerdicts(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomCorpus(rng, 25)
		src := randomSuite(rng, 25)
		raw, err := compiler.CompileWith(src, compiler.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		opt, err := compiler.CompileWith(src, compiler.Options{Optimize: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rawRep := (&Engine{Store: st, Env: simenv.NewSim()}).Run(raw)
		optRep := (&Engine{Store: st, Env: simenv.NewSim()}).Run(opt)
		if violationSet(rawRep) != violationSet(optRep) {
			t.Errorf("seed %d: optimization changed verdicts\nraw: %d violations\nopt: %d violations",
				seed, len(rawRep.Violations), len(optRep.Violations))
		}
	}
}

// Metamorphic property: parallel partitioned validation agrees with
// sequential validation.
func TestPropParallelPreservesVerdicts(t *testing.T) {
	for seed := int64(20); seed < 35; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomCorpus(rng, 20)
		src := randomSuite(rng, 20)
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		seq := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
		for _, workers := range []int{2, 4, 10} {
			par := (&Engine{Store: st, Env: simenv.NewSim(), Opts: Options{Parallel: workers}}).Run(prog)
			if violationSet(seq) != violationSet(par) {
				t.Errorf("seed %d: parallel(%d) changed verdicts: %d vs %d violations",
					seed, workers, len(seq.Violations), len(par.Violations))
			}
		}
	}
}

// Metamorphic property: naive discovery and indexed discovery produce the
// same verdicts.
func TestPropNaiveDiscoveryPreservesVerdicts(t *testing.T) {
	for seed := int64(40); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomCorpus(rng, 15)
		src := randomSuite(rng, 15)
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fast := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
		slow := refRun(st, prog, refeval.Options{NaiveDiscovery: true})
		if violationSet(fast) != violationSet(slow) {
			t.Errorf("seed %d: naive discovery changed verdicts", seed)
		}
	}
}

// Metamorphic property: element-wise verdicts are invariant under
// instance insertion order. (Aggregates like unique/consistent blame
// order-dependent representatives by design, so the suite here is
// element-wise only.)
func TestPropOrderInvariance(t *testing.T) {
	for seed := int64(60); seed < 70; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomCorpus(rng, 12)
		src := randomSuite(rng, 12)
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		base := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)

		// Rebuild the store with instances shuffled.
		ins := append([]*config.Instance{}, st.Instances()...)
		rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
		shuffled := config.NewStore()
		for _, in := range ins {
			shuffled.Add(&config.Instance{Key: in.Key, Value: in.Value, Source: in.Source})
		}
		rep := (&Engine{Store: shuffled, Env: simenv.NewSim()}).Run(prog)
		if violationSet(base) != violationSet(rep) {
			t.Errorf("seed %d: verdicts depend on instance order", seed)
		}
	}
}

// Monotonicity: adding a violating instance never removes violations from
// an element-wise suite.
func TestPropMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randomCorpus(rng, 10)
	src := "$Zone.Comp0.P0 -> int\n$Zone.Comp1.P1 -> ip & nonempty\n"
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	before := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
	st.Add(&config.Instance{
		Key:   config.K("Zone::zz[9]", "Comp0", "P0"),
		Value: "definitely-not-an-int",
	})
	after := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
	if len(after.Violations) != len(before.Violations)+1 {
		t.Errorf("violations %d -> %d after adding one bad instance",
			len(before.Violations), len(after.Violations))
	}
}
