package confvalley_test

// Benchmarks regenerating each table and figure of the paper's evaluation
// (§6). Each benchmark exercises the code path behind one artifact at a
// test-friendly scale; cmd/cvbench runs the same experiments and prints
// the paper-style rows (add -full for paper-scale corpora). See
// EXPERIMENTS.md for the experiment index and paper-vs-measured values.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"testing"

	confvalley "confvalley"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/parser"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/experiments"
	"confvalley/internal/infer"
	"confvalley/internal/legacy"
	"confvalley/internal/refeval"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

func benchConfig() experiments.Config {
	cfg := experiments.Quick(io.Discard)
	cfg.ScaleA = 0.05
	cfg.ScaleB = 0.002
	return cfg
}

// BenchmarkTable2DriverParsing stands behind Table 2: the drivers whose
// sizes the table reports, parsing a Type A snapshot in each format.
func BenchmarkTable2DriverParsing(b *testing.B) {
	corpus := azuregen.GenerateA(0.05, 2015)
	inputs := []struct {
		format string
		data   []byte
	}{
		{"xml", azuregen.RenderXML(corpus.Store)},
		{"kv", azuregen.RenderKV(corpus.Store)},
		{"ini", azuregen.RenderINI(corpus.Store)},
	}
	for _, in := range inputs {
		b.Run(in.format, func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			for i := 0; i < b.N; i++ {
				st := config.NewStore()
				if _, err := driver.LoadInto(st, in.format, in.data, "bench", ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3RewriteAzure stands behind Table 3: the CPL suites
// versus their imperative counterparts, on the same data. The interesting
// number besides LoC (reported by cvbench) is that the declarative form
// costs no more to run.
func BenchmarkTable3RewriteAzure(b *testing.B) {
	st := config.NewStore()
	azuregen.AddExpertSubstrate(st, 40, 2015)
	env := azuregen.ExpertEnv()
	prog, err := compiler.Compile(specs.AzureTypeA())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cpl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.Engine{Store: st, Env: env}
			if rep := eng.Run(prog); !rep.Passed() {
				b.Fatal("unexpected violations")
			}
		}
	})
	b.Run("imperative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if errs := legacy.ValidateTypeA(st, env); len(errs.Violations) != 0 {
				b.Fatal("unexpected violations")
			}
		}
	})
}

// BenchmarkTable4RewriteOpenSource stands behind Table 4.
func BenchmarkTable4RewriteOpenSource(b *testing.B) {
	osStore := config.NewStore()
	if _, err := driver.LoadInto(osStore, "yaml", specs.OpenStackConfig(), "o.yaml", ""); err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(specs.OpenStack())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("openstack-cpl", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.Engine{Store: osStore, Env: simenv.NewSim()}
			eng.Run(prog)
		}
	})
	b.Run("openstack-imperative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			legacy.ValidateOpenStack(osStore)
		}
	})
}

// BenchmarkTable5Inference stands behind Table 5: constraint mining over
// each corpus type.
func BenchmarkTable5Inference(b *testing.B) {
	corpora := map[string]*azuregen.Corpus{
		"TypeA": azuregen.GenerateA(0.05, 2015),
		"TypeB": azuregen.GenerateB(0.002, 2015),
		"TypeC": azuregen.GenerateC(1.0, 2015),
	}
	for name, c := range corpora {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := infer.Infer(c.Store, infer.Defaults())
				if len(res.Constraints) == 0 {
					b.Fatal("inference found nothing")
				}
			}
		})
	}
}

// BenchmarkInferTypeA is the miner on a full-scale Type A corpus, for
// profiling (make profile-infer): every class typed, ranged, checked for
// uniqueness and consistency, and related to the others (§4.5).
func BenchmarkInferTypeA(b *testing.B) {
	st := azuregen.GenerateA(1.0, 2015).Store
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := infer.Infer(st, infer.Defaults()); len(res.Constraints) == 0 {
			b.Fatal("inference found nothing")
		}
	}
}

// BenchmarkFigure5Histogram stands behind Figure 5.
func BenchmarkFigure5Histogram(b *testing.B) {
	c := azuregen.GenerateA(0.05, 2015)
	res := infer.Infer(c.Store, infer.Defaults())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := res.Histogram(4)
		if len(h) != 5 {
			b.Fatal("bad histogram")
		}
	}
}

// BenchmarkTable6ExpertValidation stands behind Table 6: the expert suite
// over an error-injected branch.
func BenchmarkTable6ExpertValidation(b *testing.B) {
	st := config.NewStore()
	azuregen.AddExpertSubstrate(st, 40, 2015)
	azuregen.InjectExpertErrors(st, 40, 4, 77)
	env := azuregen.ExpertEnv()
	prog, err := compiler.Compile(specs.AzureTypeA())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.Engine{Store: st, Env: env}
		rep := eng.Run(prog)
		if rep.Passed() {
			b.Fatal("injected errors not caught")
		}
	}
}

// BenchmarkTable7InferredValidation stands behind Table 7: inferred
// specifications over an error-injected branch.
func BenchmarkTable7InferredValidation(b *testing.B) {
	good, branches := azuregen.GenerateBranches(0.05, 2015, []azuregen.BranchSetup{
		{Name: "Trunk", ExpertErrors: 0, TrueInferred: 5, BenignDrifts: 2},
	})
	res := infer.Infer(good.Store, infer.Defaults())
	prog, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		b.Fatal(err)
	}
	br := branches[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := engine.Engine{Store: br.Store, Env: azuregen.ExpertEnv()}
		rep := eng.Run(prog)
		if rep.Passed() {
			b.Fatal("injected errors not caught")
		}
	}
}

// BenchmarkTable8Validation stands behind Table 8: sequential versus
// partitioned validation.
func BenchmarkTable8Validation(b *testing.B) {
	c := azuregen.GenerateA(0.05, 2015)
	res := infer.Infer(c.Store, infer.Defaults())
	prog, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.Engine{Store: c.Store, Env: simenv.NewSim()}
			eng.Run(prog)
		}
	})
	b.Run("parallel10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.Engine{Store: c.Store, Env: simenv.NewSim(), Opts: engine.Options{Parallel: 10}}
			eng.Run(prog)
		}
	})
}

// BenchmarkTable9Inference stands behind Table 9: parse-to-unified versus
// mining time.
func BenchmarkTable9Inference(b *testing.B) {
	data := azuregen.RenderKV(azuregen.GenerateB(0.002, 2015).Store)
	b.Run("parsing", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			st := config.NewStore()
			if _, err := driver.LoadInto(st, "kv", data, "b.kv", ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	st := config.NewStore()
	if _, err := driver.LoadInto(st, "kv", data, "b.kv", ""); err != nil {
		b.Fatal(err)
	}
	b.Run("inference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			infer.Infer(st, infer.Defaults())
		}
	})
}

// BenchmarkFigure4Optimizations stands behind the Figure 4 ablation:
// validating the redundant one-constraint-per-statement suite with and
// without the compiler rewrites.
func BenchmarkFigure4Optimizations(b *testing.B) {
	c := azuregen.GenerateA(0.05, 2015)
	res := infer.Infer(c.Store, infer.Defaults())
	src := res.GenerateVerboseCPL()
	raw, err := compiler.CompileWith(src, compiler.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opt, err := compiler.CompileWith(src, compiler.Options{Optimize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unoptimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.Engine{Store: c.Store, Env: simenv.NewSim()}
			eng.Run(raw)
		}
	})
	b.Run("optimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng := engine.Engine{Store: c.Store, Env: simenv.NewSim()}
			eng.Run(opt)
		}
	})
}

// BenchmarkDiscoveryNaiveVsTrie stands behind the §5.2 discovery
// optimization claim (5x–40x).
func BenchmarkDiscoveryNaiveVsTrie(b *testing.B) {
	c := azuregen.GenerateA(0.05, 2015)
	pats := []config.Pattern{
		config.P("Cluster", "Fabric", "*"),
		config.P("*Timeout*"),
		config.P("Cluster::east1-c000", "Fabric", "*"),
	}
	b.Run("trie+cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pats {
				c.Store.Discover(p)
			}
		}
	})
	b.Run("trie-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Store.InvalidateCache()
			for _, p := range pats {
				c.Store.Discover(p)
			}
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range pats {
				c.Store.DiscoverNaive(p)
			}
		}
	})
}

// BenchmarkPlanExecution measures the executable-plan layer on the
// inferred Type A workload: direct AST interpretation (refeval, which
// is sequential: compare the arms at -cpu 1), a cold plan (lowering cost
// included — each run gets a freshly compiled program, compiled outside
// the timer, which has no plan yet), and the program's warm plan.
func BenchmarkPlanExecution(b *testing.B) {
	c := azuregen.GenerateA(0.05, 2015)
	src := infer.Infer(c.Store, infer.Defaults()).GenerateCPL()
	compile := func() *compiler.Program {
		prog, err := compiler.Compile(src)
		if err != nil {
			b.Fatal(err)
		}
		return prog
	}
	run := func(prog *compiler.Program, interpret bool) {
		if interpret {
			refeval.Run(context.Background(), c.Store.Snapshot(), prog, simenv.NewSim(), refeval.Options{})
			return
		}
		eng := engine.Engine{Store: c.Store, Env: simenv.NewSim()}
		eng.Run(prog)
	}
	prog := compile()
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(prog, true)
		}
	})
	b.Run("plan-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cold := compile()
			b.StartTimer()
			run(cold, false)
		}
	})
	b.Run("plan-cached", func(b *testing.B) {
		run(prog, false) // lower the plan
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(prog, false)
		}
	})
}

// BenchmarkCompartmentVsCartesian is the DESIGN.md §10(3) ablation: the
// same relation checked per compartment instance (each cluster's start
// against its own end — linear in the clusters) and with no compartment
// (every start against every end — the Cartesian product compartments
// exist to avoid). ns/group is time per cluster: flat across sizes on the
// compartment arm, growing with the cluster count on the Cartesian one.
func BenchmarkCompartmentVsCartesian(b *testing.B) {
	// Only the compartment arm states the intended rule; the product
	// compares unrelated clusters and reports violations.
	arms := []struct {
		name, src string
		passes    bool
	}{
		{"compartment", "compartment Cluster { $VipStart <= $VipEnd }", true},
		{"cartesian", "$VipStart <= $VipEnd", false},
	}
	for _, arm := range arms {
		prog, err := compiler.Compile(arm.src)
		if err != nil {
			b.Fatal(err)
		}
		for _, clusters := range []int{50, 200, 800} {
			st := config.NewStore()
			azuregen.AddExpertSubstrate(st, clusters, 2015)
			b.Run(fmt.Sprintf("%s/clusters=%d", arm.name, clusters), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					eng := engine.Engine{Store: st, Env: simenv.NewSim()}
					if rep := eng.Run(prog); arm.passes && !rep.Passed() {
						b.Fatal("clean substrate flagged")
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(clusters), "ns/group")
			})
		}
	}
}

// expertRun returns one engine run of the hand-written Type A suite over
// the given number of expert clusters with the benchmark's 12 injected
// errors, against a store built fresh each call so no discovery result,
// snapshot or verdict is reused. The plan is warm, as it is for a
// registered tenant.
func expertRun(tb testing.TB, clusters int) func() {
	gen := config.NewStore()
	azuregen.AddExpertSubstrate(gen, clusters, 2015)
	azuregen.InjectExpertErrors(gen, clusters, 12, 2016)
	ins := gen.Instances()
	prog, err := compiler.Compile(specs.AzureTypeA())
	if err != nil {
		tb.Fatal(err)
	}
	env := azuregen.ExpertEnv()
	return func() {
		st := config.NewStore()
		st.AddAll(ins)
		eng := engine.Engine{Store: st, Env: env}
		if rep := eng.Run(prog); len(rep.SpecErrors) != 0 || len(rep.Violations) == 0 {
			tb.Fatalf("expert run: %d violations, spec errors %q", len(rep.Violations), rep.SpecErrors)
		}
	}
}

// BenchmarkExpertEval is the engine's share of the repository benchmark's
// expert_eval workload, for profiling (make profile-expert): the
// hand-written Type A suite over 200 expert clusters — what the service
// pays for a request whose keys it has not seen.
func BenchmarkExpertEval(b *testing.B) {
	run := expertRun(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// The expert suite's engine run types and groups values without
// allocating, and numbers compartment instances once per run. Over 20
// clusters it made 4,126 allocations while a failed numeric or IP parse
// built an error, a parsed IP a net.IP and each aggregate element its
// class-path string; 2,463 while every compartment partition rendered
// one string and one map entry per group and every reference domain
// allocated its element set; and 1,637 since (AllocsPerRun runs at
// GOMAXPROCS 1, so the count does not depend on the core count). The
// bound sits between the last two.
func TestExpertEvalAllocs(t *testing.T) {
	run := expertRun(t, 20)
	n := testing.AllocsPerRun(5, run)
	t.Logf("expert suite over 20 clusters: %.0f allocations per run", n)
	if n > 2100 {
		t.Errorf("expert suite over 20 clusters: %.0f allocations per run, want at most 2,100", n)
	}
}

// BenchmarkColdIngest is the ingest share of the repository benchmark's
// novel_xml workload, for profiling (make profile-ingest): a full Type A
// corpus as nested XML goes from bytes to a sealed snapshot — driver
// parse, store build, seal — as it does for a payload the service has
// never seen. Every iteration parses a fresh copy of the document in
// full, so nothing an earlier parse retained can be what a later one
// reads: the service re-parses a payload that differs from its previous
// one only inside values, and this is the parse that skips.
func BenchmarkColdIngest(b *testing.B) {
	doc := azuregen.RenderXML(azuregen.GenerateA(1.0, 2015).Store)
	ctx := context.Background()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := append([]byte(nil), doc...)
		b.StartTimer()
		ins, err := driver.ParseScoped(ctx, "xml", fresh, "corpus.xml", "")
		if err != nil {
			b.Fatal(err)
		}
		st := config.NewStore()
		st.AddAll(ins)
		if sn := st.Snapshot(); sn.Len() == 0 {
			b.Fatal("ingest produced an empty snapshot")
		}
	}
}

// coldRequest is the repository benchmark's novel_xml operation, built
// here because no change but a benchmark one may touch bench/: a Type A
// corpus at the given scale (1.0 is the benchmark's) as nested XML in an
// encoded validate request, the inferred suite it is checked against, and
// the offset of the ten digits of a setting no specification reads.
// Stamping them makes the body one the service has never seen while the
// splice can still reuse every spec.
func coldRequest(tb testing.TB, scale float64) (spec string, body []byte, nonceOff int) {
	const digits = "0000000000"
	good := azuregen.GenerateA(scale, 2015)
	spec = infer.Infer(good.Store, infer.Defaults()).GenerateCPL()
	st := config.NewStore()
	st.Add(&config.Instance{Key: config.K("BenchRun", "Nonce"), Value: digits})
	st.AddAll(good.Store.Instances())
	body, err := json.Marshal(serve.ValidateRequest{Payloads: []serve.PayloadRef{
		{Name: "corpus.xml", Format: "xml", Data: string(azuregen.RenderXML(st))},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	marker := []byte(`Key=\"Nonce\" Value=\"` + digits)
	if bytes.Count(body, marker) != 1 {
		tb.Fatal("nonce setting not found exactly once in the encoded body")
	}
	return spec, body, bytes.Index(body, marker) + len(marker) - len(digits)
}

// stampNonce overwrites the body's ten nonce digits with n.
func stampNonce(body []byte, off int, n int) {
	d := strconv.AppendInt(nil, int64(n), 10)
	copy(body[off+10-len(d):off+10], d)
}

// coldServer registers spec on a fresh server and validates body once, so
// that the loader holds a full parse of it and the lineage a report to
// splice from. It returns the server and the number of specs.
func coldServer(tb testing.TB, spec string, body []byte) (*serve.Server, int) {
	ctx := context.Background()
	srv := serve.New(serve.Config{Runner: runner.Options{Env: azuregen.ExpertEnv()}})
	info, err := srv.RegisterSpec("bench", "inferred", spec)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := srv.ValidateBody(ctx, "bench", "inferred", body); err != nil {
		tb.Fatal(err)
	}
	return srv, info.Specs
}

// BenchmarkColdRequest is the whole novel_xml operation below the
// transport, for profiling (make profile-request): envelope decode, load,
// store build, seal, diff against the previous request's snapshot,
// incremental splice, report — a request every cache layer misses on,
// in-process through Server.ValidateBody. In one-value, the payload
// differs from the previous request's in the nonce only, so the envelope
// decode copies the decoded bytes of every chunk but the nonce's and its
// neighbour's from the spec's address memo (BenchmarkDecodeEnvelope times
// a decode with nothing to copy), the load is the delta re-parse against
// the first request's parse (BenchmarkColdIngest times a full parse), the
// store is that parse's partition with one class copied, the diff walks
// pointers and the payload buffer goes back to the pool. In structural, each request adds one setting to the previous
// one's document, so the walk declines and every request is parsed in
// full, keeps its buffer and builds its store: the cold_xml path.
func BenchmarkColdRequest(b *testing.B) {
	spec, template, nonceOff := coldRequest(b, 1.0)
	ctx := context.Background()
	b.Run("one-value", func(b *testing.B) {
		body := bytes.Clone(template)
		srv, specs := coldServer(b, spec, body)
		// One re-parsed request before the clock starts: the full parse
		// kept its buffer, so this one leaves the pool the buffer every
		// later request decodes into.
		for i := 0; i <= b.N; i++ {
			if i == 1 {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
			}
			stampNonce(body, nonceOff, i+1)
			resp, err := srv.ValidateBody(ctx, "bench", "inferred", body)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Report.SpecsReused != specs {
				b.Fatalf("request %d reused %d of %d specs", i+1, resp.Report.SpecsReused, specs)
			}
		}
		if st := srv.Stats(); st.SourcesParsed != 1 || st.SourcesReparsed != int64(b.N)+1 {
			b.Fatalf("%d requests after the first: %d payloads parsed, %d re-parsed; want 1, %d", b.N+1, st.SourcesParsed, st.SourcesReparsed, b.N+1)
		}
	})
	b.Run("structural", func(b *testing.B) {
		// Settings go in behind the nonce's, one more per request.
		at := nonceOff + bytes.Index(template[nonceOff:], []byte(`\u003e`)) + len(`\u003e`)
		body := slices.Grow(bytes.Clone(template), 64*(b.N+1))
		srv, _ := coldServer(b, spec, body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			body = slices.Insert(body, at, []byte(fmt.Sprintf(`\u003cSetting Key=\"Extra%d\" Value=\"1\"/\u003e`, i))...)
			b.StartTimer()
			if _, err := srv.ValidateBody(ctx, "bench", "inferred", body); err != nil {
				b.Fatal(err)
			}
		}
		if st := srv.Stats(); st.SourcesParsed != int64(b.N)+1 || st.SourcesReparsed != 0 {
			b.Fatalf("%d requests after the first: %d payloads parsed, %d re-parsed; want %d, 0", b.N, st.SourcesParsed, st.SourcesReparsed, b.N+1)
		}
	})
}

// A one-value request costs its change, not its payload: at Type A scale
// 0.2 (a 1 MB body), once a first request has been parsed in full, a
// request that differs from the previous one in the nonce decodes into the
// pooled payload buffer the previous request released, re-parses against
// the first parse and builds its store from that parse's partition. It
// allocates well under a quarter of its body — a fresh decode buffer alone
// is the body's size, and the walk's store was a rebuild of the whole
// partition. The cheapest of nine requests is taken: the first one finds
// the pool empty (the full parse kept its buffer), a collection may empty
// it again, and under the race detector sync.Pool drops a quarter of what
// it is given on purpose.
func TestOneValueRequestAllocs(t *testing.T) {
	spec, body, nonceOff := coldRequest(t, 0.2)
	srv, specs := coldServer(t, spec, body)
	ctx := context.Background()
	var per []uint64
	for i := 1; i <= 9; i++ {
		stampNonce(body, nonceOff, i)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := srv.ValidateBody(ctx, "bench", "inferred", body)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Report.SpecsReused != specs {
			t.Fatalf("request %d reused %d of %d specs", i, resp.Report.SpecsReused, specs)
		}
		per = append(per, after.TotalAlloc-before.TotalAlloc)
	}
	if st := srv.Stats(); st.SourcesParsed != 1 || st.SourcesReparsed != 9 {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 1, 9", st.SourcesParsed, st.SourcesReparsed)
	}
	if least := slices.Min(per); least > uint64(len(body)/4) {
		t.Errorf("a one-value request with a %d-byte body allocated at least %d bytes (per request: %v), want at most a quarter of the body", len(body), least, per)
	}
}

// BenchmarkCLIRun is the repository benchmark's cli_kv_b operation, for
// profiling (make profile-cli): what one cvcheck process does through the
// runner it calls — compile and lower the hand-written Type B suite, read
// and parse a Type B corpus written as a KV file, run every spec, render
// the text report — with a fresh runner per iteration and the plan
// forgotten after it, as a process that exits would leave things.
func BenchmarkCLIRun(b *testing.B) {
	dir := b.TempDir()
	specPath, dataPath := filepath.Join(dir, "typeb.cpl"), filepath.Join(dir, "typeb.kv")
	data := azuregen.RenderKV(azuregen.GenerateB(0.05, 2015).Store)
	if err := os.WriteFile(specPath, []byte(specs.AzureTypeB()), 0o644); err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(dataPath, data, 0o644); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	var out bytes.Buffer
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		res, err := runner.New(runner.Options{}).Run(ctx, runner.Job{
			SpecPath: specPath,
			Sources:  []confvalley.Source{{Name: dataPath, Format: "kv"}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := confvalley.RenderReport(res.Report, &out); err != nil {
			b.Fatal(err)
		}
		if rep := res.Report; res.Data.Degraded() || rep.InstancesChecked == 0 || len(rep.SpecErrors) != 0 {
			b.Fatalf("cli run: degraded %t, %d instances checked, spec errors %q", res.Data.Degraded(), rep.InstancesChecked, rep.SpecErrors)
		}
	}
}

// BenchmarkDiffRebuilt is the diff's share: two parses of the same
// document, one setting re-valued, in stores that share nothing.
func BenchmarkDiffRebuilt(b *testing.B) {
	doc := azuregen.RenderXML(azuregen.GenerateA(1.0, 2015).Store)
	seal := func(doc []byte) *config.Snapshot {
		ins, err := driver.ParseScoped(context.Background(), "xml", doc, "corpus.xml", "")
		if err != nil {
			b.Fatal(err)
		}
		st := config.NewStore()
		st.AddAll(ins)
		return st.Snapshot()
	}
	old := seal(doc)
	marker := []byte(`" Value="`)
	at := bytes.LastIndex(doc, marker) + len(marker)
	sn := seal(append(append(append([]byte(nil), doc[:at]...), "changed "...), doc[at:]...))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := sn.Diff(old); d.Len() != 1 {
			b.Fatalf("delta of %d keys, want 1", d.Len())
		}
	}
}

// BenchmarkCPLParser measures the hand-rolled front end.
func BenchmarkCPLParser(b *testing.B) {
	src := specs.AzureTypeA() + specs.AzureTypeB() + specs.OpenStack()
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := parser.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndSession measures the full public-API flow the
// quickstart example takes.
func BenchmarkEndToEndSession(b *testing.B) {
	data := azuregen.RenderINI(azuregen.GenerateC(1.0, 2015).Store)
	for i := 0; i < b.N; i++ {
		s := confvalley.NewSession()
		if _, err := s.LoadData("ini", data, "c.ini", ""); err != nil {
			b.Fatal(err)
		}
		rep, err := s.Validate(specs.AzureTypeC())
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Passed() {
			b.Fatal("clean corpus flagged")
		}
	}
}

// checkDiscoveryWork repeats experiments.Discovery's two arms on the
// same workload and checks the store's counters: the indexed arm issues
// the experiment's queries, scans no instance and answers repeats from
// its cache; the naive arm scans the whole store on every query.
func checkDiscoveryWork(t *testing.T, cfg experiments.Config, queries int64) {
	t.Helper()
	a := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	prog, err := compiler.Compile(infer.Infer(a.Store, infer.Defaults()).GenerateCPL())
	if err != nil {
		t.Fatal(err)
	}
	stats := a.Store.Stats
	run := func(naive bool) {
		a.Store.InvalidateCache()
		a.Store.ResetStats()
		refeval.Run(context.Background(), a.Store.Snapshot(), prog, simenv.NewSim(), refeval.Options{NaiveDiscovery: naive})
	}
	run(false)
	if stats.Queries() != queries || stats.Scanned() != 0 || stats.CacheHits() == 0 {
		t.Errorf("discovery, indexed arm: %d queries (experiment: %d), %d scanned, %d cache hits; want equal queries, 0 scanned, some hits",
			stats.Queries(), queries, stats.Scanned(), stats.CacheHits())
	}
	run(true)
	if want := queries * int64(a.Store.Len()); queries < 2 || stats.Scanned() != want {
		t.Errorf("discovery, naive arm: %d instances scanned over %d queries, want %d (a full scan per query)",
			stats.Scanned(), queries, want)
	}
}

// TestExperimentsSmoke runs every cvbench experiment once at reduced
// scale, asserting the qualitative shapes the paper reports.
func TestExperimentsSmoke(t *testing.T) {
	cfg := benchConfig()

	t3 := experiments.Table3(cfg)
	for _, r := range t3 {
		if r.CPLLoC*3 > r.OrigLoC {
			t.Errorf("Table 3 %s: CPL %d vs orig %d — expected ≥3x reduction", r.Name, r.CPLLoC, r.OrigLoC)
		}
		if r.Inferable <= 0 || r.Inferable > r.SpecCount {
			t.Errorf("Table 3 %s: inferable %d of %d", r.Name, r.Inferable, r.SpecCount)
		}
	}
	t4 := experiments.Table4(cfg)
	for _, r := range t4 {
		if r.CPLLoC*3 > r.OrigLoC {
			t.Errorf("Table 4 %s: CPL %d vs orig %d", r.Name, r.CPLLoC, r.OrigLoC)
		}
	}

	t5 := experiments.Table5(cfg)
	if len(t5) != 3 || t5[0].Total == 0 {
		t.Fatalf("Table 5 rows = %+v", t5)
	}

	h := experiments.Figure5(cfg)
	sum := 0
	for _, n := range h {
		sum += n
	}
	if sum == 0 || h[0] == 0 {
		t.Errorf("Figure 5 histogram = %v", h)
	}

	// The branch experiment needs enough classes per archetype to host
	// all injections; use the standard quick scale (0.1) rather than the
	// benchmark scale.
	t6, t7 := experiments.BranchExperiment(experiments.Quick(io.Discard))
	wantT6 := []int{4, 2, 2}
	wantT7 := []int{12, 15, 16}
	wantFP := []int{3, 5, 3}
	for i := range t6 {
		if t6[i].Reported != wantT6[i] || t6[i].FalsePositives != 0 {
			t.Errorf("Table 6 %s: reported %d (want %d), FP %d (want 0)",
				t6[i].Branch, t6[i].Reported, wantT6[i], t6[i].FalsePositives)
		}
		if t7[i].Reported != wantT7[i] || t7[i].FalsePositives != wantFP[i] {
			t.Errorf("Table 7 %s: reported %d (want %d), FP %d (want %d)",
				t7[i].Branch, t7[i].Reported, wantT7[i], t7[i].FalsePositives, wantFP[i])
		}
		if t7[i].Unattributed != 0 {
			t.Errorf("Table 7 %s: %d unattributed violations", t7[i].Branch, t7[i].Unattributed)
		}
	}

	t8 := experiments.Table8(cfg)
	if len(t8) != 3 {
		t.Fatalf("Table 8 rows = %d", len(t8))
	}
	for _, r := range t8 {
		if r.Instances == 0 || r.SpecCount == 0 {
			t.Errorf("Table 8 %s: %d instances, %d specs", r.Name, r.Instances, r.SpecCount)
		}
	}

	t9 := experiments.Table9(cfg)
	for _, r := range t9 {
		if r.Parsing < r.Inference/20 {
			t.Errorf("Table 9 %s: parsing %v implausibly small vs inference %v", r.Name, r.Parsing, r.Inference)
		}
	}

	f4 := experiments.Figure4(cfg)
	if f4.SpecsOptimized >= f4.SpecsRaw {
		t.Errorf("Figure 4: optimization did not reduce specs (%d vs %d)", f4.SpecsOptimized, f4.SpecsRaw)
	}
	if f4.QueriesOptimized > f4.QueriesRaw {
		t.Errorf("Figure 4: optimization increased queries (%d vs %d)", f4.QueriesOptimized, f4.QueriesRaw)
	}

	acc := experiments.InferenceAccuracy(experiments.Quick(io.Discard))
	if p := acc.Precision(); p < 0.80 || p > 0.99 {
		t.Errorf("inference precision = %.2f; want the paper's imperfect-but-high band", p)
	}
	if acc.ByKind["Range"][1] == 0 && acc.ByKind["Uniqueness"][1] == 0 {
		t.Error("trap archetypes produced no inaccuracies; the §6.3 experiment is vacuous")
	}

	// The ablation below asserts counted work, not a wall-clock ratio:
	// the experiment prints its times, which a loaded host skews.
	d := experiments.Discovery(cfg)
	checkDiscoveryWork(t, cfg, d.Queries)

	t2 := experiments.Table2(cfg)
	if len(t2) < 6 {
		t.Errorf("Table 2 rows = %d", len(t2))
	}
	for _, r := range t2 {
		if r.LoC < 10 {
			t.Errorf("Table 2 %s: %d LoC implausible", r.Format, r.LoC)
		}
	}
}
