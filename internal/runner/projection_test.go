package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"confvalley"
	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/infer"
	"confvalley/internal/ingest"
	"confvalley/internal/plan"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

// projectionSuite is one shipped suite with the store it is written for.
type projectionSuite struct {
	name string
	src  string
	st   *config.Store
	env  confvalley.Env
}

func projectionSuites(t *testing.T) []projectionSuite {
	t.Helper()
	load := func(format string, data []byte, name string) *config.Store {
		st := config.NewStore()
		if _, err := driver.LoadInto(st, format, data, name, ""); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := azuregen.GenerateA(0.05, 2015)
	b := azuregen.GenerateB(0.002, 2015)
	azuregen.InjectInferredErrors(b, 6, 2, 2015)
	c := azuregen.GenerateC(0.05, 2015)
	expert := config.NewStore()
	clusters := azuregen.AddExpertSubstrate(expert, 40, 2015)
	azuregen.InjectExpertErrors(expert, clusters, 12, 2015)
	return []projectionSuite{
		{"typeA-inferred", infer.Infer(a.Store, infer.Defaults()).GenerateCPL(), a.Store, simenv.NewSim()},
		{"expert", specs.AzureTypeA(), expert, azuregen.ExpertEnv()},
		{"typeB", specs.AzureTypeB(), b.Store, simenv.NewSim()},
		{"typeC", specs.AzureTypeC(), c.Store, simenv.NewSim()},
		{"openstack", specs.OpenStack(), load("yaml", specs.OpenStackConfig(), "openstack.yaml"), simenv.NewSim()},
		{"cloudstack", specs.CloudStack(), load("json", specs.CloudStackConfig(), "cloudstack.json"), simenv.NewSim()},
	}
}

// fullReport validates kv with no projection: the session's own load,
// which never projects, and the same plan executor the runner uses.
func fullReport(t *testing.T, src string, kv []byte, env confvalley.Env) []byte {
	t.Helper()
	s := confvalley.NewSession()
	s.SetEnv(env)
	if _, err := s.LoadData("kv", kv, "suite.kv", ""); err != nil {
		t.Fatal(err)
	}
	prog, err := s.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := s.RunProgram(context.Background(), prog, s.Store())
	if err != nil {
		t.Fatal(err)
	}
	return canonical(t, rep)
}

// canonical is a report's wire form with the fields two equivalent runs
// may differ in — wall time and reuse accounting — zeroed.
func canonical(t *testing.T, rep *confvalley.Report) []byte {
	t.Helper()
	w := rep.Wire()
	w.DurationNS, w.SpecsReused = 0, 0
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// revalued renders st as KV with every 500th value changed: edits land in
// classes the suites read and in ones they do not.
func revalued(st *config.Store) []byte {
	next := config.NewStore()
	for i, in := range st.Instances() {
		cp := *in
		if i%500 == 0 {
			cp.Value += "0"
		}
		next.Add(&cp)
	}
	return azuregen.RenderKV(next)
}

// The identity gate: over every shipped suite's store rendered as KV, a
// projected run reports byte for byte what an unprojected one does — in
// full, and incrementally from a projected run's state, with changes in
// read and unread classes alike.
func TestProjectedReportsMatchFull(t *testing.T) {
	ctx := context.Background()
	for _, s := range projectionSuites(t) {
		kv, next := azuregen.RenderKV(s.st), revalued(s.st)
		r := New(Options{Env: s.env})
		res, err := r.Run(ctx, Job{SpecSrc: s.src, Payloads: []Payload{{Name: "suite.kv", Format: "kv", Data: kv}}})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		o := res.Data.Outcomes[0]
		if o.Err != "" || o.Instances != s.st.Len() || o.Projected == nil || *o.Projected > o.Instances {
			t.Fatalf("%s: outcome %+v for %d instances; want a clean projected load", s.name, o, s.st.Len())
		}
		if got, want := canonical(t, res.Report), fullReport(t, s.src, kv, s.env); !bytes.Equal(got, want) {
			t.Fatalf("%s: projected report differs from the full one:\n got: %s\nwant: %s", s.name, got, want)
		}
		inc, err := r.Run(ctx, Job{Prog: res.Program, Payloads: []Payload{{Name: "suite.kv", Format: "kv", Data: next}}, Prev: res.State})
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got, want := canonical(t, inc.Report), fullReport(t, s.src, next, s.env); !bytes.Equal(got, want) {
			t.Fatalf("%s: incremental projected report differs from the full one:\n got: %s\nwant: %s", s.name, got, want)
		}
		t.Logf("%s: %d of %d instances loaded; incremental run reused %d of %d specs",
			s.name, *o.Projected, o.Instances, inc.Report.SpecsReused, inc.Report.SpecsRun)
	}
}

// Projection is off wherever something reads the whole store or the
// reads are not bounded: the reference interpreter, lint's corpus drift,
// a program with load commands, a Dynamic spec, and drivers that do not
// project.
func TestProjectionOff(t *testing.T) {
	const kv = "app.timeout = 30\nother.key = 1\n"
	cases := []struct {
		name   string
		opts   Options
		spec   string
		format string
	}{
		{"interpreter", Options{Interpret: true}, "$app.timeout -> int", "kv"},
		{"lint", Options{Lint: true}, "$app.timeout -> int", "kv"},
		{"load command", Options{}, "load 'kv' 'extra.kv'\n$app.timeout -> int", "kv"},
		{"dynamic spec", Options{}, "$app.timeout -> foreach($other.$_) -> nonempty", "kv"},
		{"ini driver", Options{}, "$app.timeout -> int", "ini"},
	}
	for _, c := range cases {
		r := New(c.opts)
		r.Session().RegisterSource("extra.kv", []byte("x = 1\n"))
		res, err := r.Run(context.Background(), Job{SpecSrc: c.spec, Payloads: []Payload{{Name: "app.kv", Format: c.format, Data: []byte(kv)}}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if o := res.Data.Outcomes[0]; o.Err != "" || o.Instances != 2 || o.Projected != nil {
			t.Errorf("%s: outcome %+v; want both instances loaded unprojected", c.name, o)
		}
	}
	res, err := New(Options{}).Run(context.Background(), Job{SpecSrc: "$app.timeout -> int", Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte(kv)}}})
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Data.Outcomes[0]; o.Instances != 2 || o.Projected == nil || *o.Projected != 1 {
		t.Errorf("static spec over kv: outcome %+v; want 1 of 2 instances loaded", o)
	}
}

// A cold run lowers its program once, reading the projection ahead of
// the load included; a warm run of the same program lowers nothing.
func TestWarmRunLowersNothing(t *testing.T) {
	r := New(Options{})
	job := Job{SpecSrc: "$app.timeout -> int", Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte("app.timeout = 30\n")}}}
	n0 := plan.Lowerings()
	if _, err := r.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if n := plan.Lowerings(); n != n0+1 {
		t.Errorf("a cold run lowered %d time(s), want 1", n-n0)
	}
	n1 := plan.Lowerings()
	if _, err := r.Run(context.Background(), job); err != nil {
		t.Fatal(err)
	}
	if n := plan.Lowerings(); n != n1 {
		t.Errorf("a warm run lowered %d time(s), want 0", n-n1)
	}
}

// The allocation pin: the benchmark's Type B file (scale 0.05, seed
// 2015) loaded through the runner with the Type B projection builds
// exactly the 44,144 instances the suite reads of its 115,344, and its
// load allocates under 65 % of what the unprojected load of the same
// file does.
func TestProjectedTypeBLoad(t *testing.T) {
	kv := azuregen.RenderKV(azuregen.GenerateB(0.05, 2015).Store)
	r := New(Options{})
	prog, err := r.Compile(specs.AzureTypeB())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(context.Background(), Job{Prog: prog, Payloads: []Payload{{Name: "typeb.kv", Format: "kv", Data: kv}}})
	if err != nil {
		t.Fatal(err)
	}
	if o := res.Data.Outcomes[0]; o.Err != "" || o.Instances != 115344 || o.Projected == nil || *o.Projected != 44144 {
		t.Fatalf("Type B load: %+v; want 44144 of 115344 instances loaded", o)
	}

	proj := plan.For(prog).Projection
	load := func(proj *driver.Projection) (uint64, int) {
		const runs = 3
		var before, after runtime.MemStats
		var n int
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			st := config.NewStore()
			src := ingest.Source{Name: "typeb.kv", Format: "kv", Projection: proj,
				Fetch: func(context.Context) ([]byte, error) { return kv, nil }}
			ingest.NewLoader(0).Load(context.Background(), st, []ingest.Source{src})
			n = st.Snapshot().Len()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, n
	}
	projected, kept := load(proj)
	full, all := load(nil)
	if kept != 44144 || all != 115344 {
		t.Fatalf("stores of %d and %d instances, want 44144 and 115344", kept, all)
	}
	t.Logf("load: projected %.2f MB, full %.2f MB (%.0f %%)", float64(projected)/(1<<20), float64(full)/(1<<20), 100*float64(projected)/float64(full))
	if projected*100 >= full*65 {
		t.Errorf("projected load allocated %d bytes, %d %% of the full load's %d; want under 65 %%", projected, projected*100/full, full)
	}
}
