package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/infer"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

// goldenJSON canonicalizes a report for byte-level comparison: the wall
// clock is the only field allowed to differ between two equivalent runs.
func goldenJSON(t *testing.T, rep *report.Report) []byte {
	t.Helper()
	rep.Duration = 0
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenWorkload is one store+program pair the planned executor must
// validate byte-identically to the AST interpreter.
type goldenWorkload struct {
	name  string
	store *config.Store
	prog  *compiler.Program
}

func goldenWorkloads(t *testing.T) []goldenWorkload {
	t.Helper()
	var ws []goldenWorkload
	add := func(name string, st *config.Store, src string) {
		prog, err := compiler.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ws = append(ws, goldenWorkload{name, st, prog})
	}

	a := azuregen.GenerateA(0.02, 2015)
	add("typeA-inferred", a.Store, infer.Infer(a.Store, infer.Defaults()).GenerateCPL())
	b := azuregen.GenerateB(0.001, 2015)
	add("typeB-written", b.Store, specs.AzureTypeB())
	c := azuregen.GenerateC(0.05, 2015)
	add("typeC-inferred", c.Store, infer.Infer(c.Store, infer.Defaults()).GenerateCPL())

	osStore := config.NewStore()
	if _, err := driver.LoadInto(osStore, "yaml", specs.OpenStackConfig(), "openstack.yaml", ""); err != nil {
		t.Fatal(err)
	}
	add("openstack", osStore, specs.OpenStack())

	csStore := config.NewStore()
	if _, err := driver.LoadInto(csStore, "json", specs.CloudStackConfig(), "cloudstack.json", ""); err != nil {
		t.Fatal(err)
	}
	add("cloudstack", csStore, specs.CloudStack())

	// Error-injected suite: specs that fail at evaluation time must
	// produce the same spec errors, in the same order, on both paths.
	add("spec-errors", osStore, `
$keystone.auth_port -> port
$nova.rabbit_host -> nonempty
$missing.$v.thing -> nonempty
$keystone.auth_protocol -> {'http', 'https'}
`)

	for seed := int64(60); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add(fmt.Sprintf("random-%d", seed), randomCorpus(rng, 18), randomSuite(rng, 18))
	}
	return ws
}

// refRun answers prog over st with the reference interpreter.
func refRun(st *config.Store, prog *compiler.Program, opts refeval.Options) *report.Report {
	return refeval.Run(context.Background(), st.Snapshot(), prog, simenv.NewSim(), opts)
}

// TestPlanGoldenReports: the lowered-plan executor and the AST
// interpreter produce byte-identical reports — same violations in the
// same order with the same messages — across the specs/ corpus,
// azuregen workloads, error-injected suites and random corpora, under
// sequential, stop-on-first and parallel execution. The interpreter is
// sequential; its naive-discovery case holds the interpreter over the
// naive scan to the plan over the index.
func TestPlanGoldenReports(t *testing.T) {
	opts := []struct {
		name  string
		opts  Options
		naive bool
	}{
		{"sequential", Options{}, false},
		{"stop-on-first", Options{StopOnFirst: true}, false},
		{"parallel-4", Options{Parallel: 4}, false},
		{"naive-discovery", Options{}, true},
	}
	for _, w := range goldenWorkloads(t) {
		for _, o := range opts {
			t.Run(w.name+"/"+o.name, func(t *testing.T) {
				interp := refRun(w.store, w.prog, refeval.Options{StopOnFirst: o.opts.StopOnFirst, NaiveDiscovery: o.naive})
				planned := (&Engine{Store: w.store, Env: simenv.NewSim(), Opts: o.opts}).Run(w.prog)
				ib, pb := goldenJSON(t, interp), goldenJSON(t, planned)
				if !bytes.Equal(ib, pb) {
					t.Errorf("planned report differs from interpreted\ninterpreted:\n%s\nplanned:\n%s", ib, pb)
				}
			})
		}
	}
}

// TestPlanParallelDeterministic: a parallel run's merged report is
// byte-identical to the sequential run's — violations come out in spec
// order regardless of partition timing.
func TestPlanParallelDeterministic(t *testing.T) {
	for _, w := range goldenWorkloads(t) {
		seq := (&Engine{Store: w.store, Env: simenv.NewSim()}).Run(w.prog)
		sb := goldenJSON(t, seq)
		for _, workers := range []int{2, 4, 10} {
			par := (&Engine{Store: w.store, Env: simenv.NewSim(), Opts: Options{Parallel: workers}}).Run(w.prog)
			pb := goldenJSON(t, par)
			if !bytes.Equal(sb, pb) {
				t.Errorf("%s: parallel(%d) report differs from sequential\nsequential:\n%s\nparallel:\n%s",
					w.name, workers, sb, pb)
			}
		}
	}
}

// TestPlanParallelRace exercises a program's one plan from concurrent
// partitions while the store mutates between runs; run with -race.
func TestPlanParallelRace(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	st := randomCorpus(rng, 20)
	src := randomSuite(rng, 20)
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st, Env: simenv.NewSim(), Opts: Options{Parallel: 4}}
	var last string
	for round := 0; round < 5; round++ {
		rep := eng.Run(prog)
		set := violationSet(rep)
		if round > 0 && set != last {
			t.Errorf("round %d: verdicts changed without a store mutation being relevant", round)
		}
		// Mutate the store between rounds: new instances in a class the
		// suite does not reference, so verdicts stay comparable while the
		// discovery index and caches are forced to rebuild.
		st.Add(&config.Instance{
			Key: config.Key{Segs: []config.Seg{
				{Name: "Zone", Inst: "z9", Index: 9},
				{Name: "Unrelated"},
				{Name: fmt.Sprintf("Q%d", round)},
			}},
			Value:  "x",
			Source: "race-test",
		})
		last = set
	}
}
