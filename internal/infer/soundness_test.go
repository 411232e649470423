package infer

import (
	"fmt"
	"math/rand"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/engine"
	"confvalley/internal/simenv"
)

// randomTrainingCorpus builds corpora mixing every value shape inference
// handles: constants, ranges, lists, sparse empties, duplicates, free
// text, near-identical long values.
func randomTrainingCorpus(rng *rand.Rand, nClasses int) *config.Store {
	st := config.NewStore()
	for c := 0; c < nClasses; c++ {
		scope := fmt.Sprintf("Svc%d", c%6)
		param := fmt.Sprintf("K%d", c)
		n := 5 + rng.Intn(40)
		kind := rng.Intn(9)
		constVal := fmt.Sprintf("constant-value-%d", rng.Intn(4))
		for i := 0; i < n; i++ {
			var v string
			switch kind {
			case 0:
				v = constVal
			case 1:
				v = fmt.Sprintf("%d", 100+rng.Intn(20))
			case 2:
				v = fmt.Sprintf("10.8.%d.%d", c%200, 1+i%250)
			case 3:
				v = []string{"true", "false"}[rng.Intn(2)]
			case 4:
				if rng.Intn(4) == 0 {
					v = ""
				} else {
					v = fmt.Sprintf("10.9.0.%d", 1+rng.Intn(250))
				}
			case 5:
				v = fmt.Sprintf("%d,%d", rng.Intn(50), 50+rng.Intn(50))
			case 6:
				v = []string{"alpha", "beta", "gamma"}[rng.Intn(3)]
			case 7:
				v = fmt.Sprintf("free text %d %d", rng.Intn(5), rng.Intn(5))
			default:
				v = fmt.Sprintf("%.2f", rng.Float64()*10)
			}
			st.Add(&config.Instance{
				Key: config.Key{Segs: []config.Seg{
					{Name: "Env", Inst: fmt.Sprintf("e%d", i%5), Index: i%5 + 1},
					{Name: scope},
					{Name: param},
				}},
				Value: v,
			})
		}
	}
	return st
}

// Soundness property: for any corpus, the specifications inference mines
// from it must compile and must hold on that same corpus — inference
// never generates a constraint its own evidence violates.
func TestPropInferenceSoundOnTrainingData(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomTrainingCorpus(rng, 20)
		res := Infer(st, Defaults())
		src := res.GenerateCPL()
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("seed %d: generated CPL does not compile: %v\n%s", seed, err, src)
		}
		rep := (&engine.Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
		if len(rep.SpecErrors) > 0 {
			t.Fatalf("seed %d: spec errors: %v", seed, rep.SpecErrors)
		}
		if len(rep.Violations) != 0 {
			for i, v := range rep.Violations {
				if i > 3 {
					break
				}
				t.Logf("  %s", v)
			}
			t.Errorf("seed %d: training corpus violates its own inferred specs (%d violations)",
				seed, len(rep.Violations))
		}
		// The verbose rendering is sound too.
		vprog, err := compiler.Compile(res.GenerateVerboseCPL())
		if err != nil {
			t.Fatalf("seed %d: verbose CPL does not compile: %v", seed, err)
		}
		if rep := (&engine.Engine{Store: st, Env: simenv.NewSim()}).Run(vprog); len(rep.Violations) != 0 || len(rep.SpecErrors) != 0 {
			t.Errorf("seed %d: verbose form disagrees: %d violations, %d errors",
				seed, len(rep.Violations), len(rep.SpecErrors))
		}
	}
}
