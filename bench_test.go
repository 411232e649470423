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
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"testing"
	"time"

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
	"confvalley/internal/plan"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
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
// pays for a request whose keys it has not seen. It reports the
// collector's share (collector.report).
func BenchmarkExpertEval(b *testing.B) {
	run := expertRun(b, 200)
	b.ReportAllocs()
	b.ResetTimer()
	gc := startCollector()
	for i := 0; i < b.N; i++ {
		run()
	}
	gc.report(b)
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
	good := azuregen.GenerateA(scale, 2015)
	spec = infer.Infer(good.Store, infer.Defaults()).GenerateCPL()
	body, nonceOff = nonceRequest(tb, good.Store.Instances())
	return spec, body, nonceOff
}

// nonceRequest returns an encoded validate request whose one payload is
// ins, after a setting no specification reads, as nested XML, and the
// offset of that setting's ten digits in the body (stampNonce).
func nonceRequest(tb testing.TB, ins []*config.Instance) (body []byte, nonceOff int) {
	const digits = "0000000000"
	st := config.NewStore()
	st.Add(&config.Instance{Key: config.K("BenchRun", "Nonce"), Value: digits})
	st.AddAll(ins)
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
	return body, bytes.Index(body, marker) + len(marker) - len(digits)
}

// renamedRequests is the repository benchmark's expert_eval operation,
// built here for the same reason: the expert substrate at 200 clusters
// with expertRun's 12 injected errors, as two request bodies whose
// clusters are renamed apart ("a-" and "b-"), so that consecutive
// requests share no key and the splice reuses nothing, each with the
// offset of its nonce's digits, and how many violations the hand-written
// suite reports over the generator's own store.
func renamedRequests(tb testing.TB) (bodies [2][]byte, nonceOffs [2]int, violations int) {
	gen := config.NewStore()
	azuregen.AddExpertSubstrate(gen, 200, 2015)
	azuregen.InjectExpertErrors(gen, 200, 12, 2016)
	prog, err := compiler.Compile(specs.AzureTypeA())
	if err != nil {
		tb.Fatal(err)
	}
	eng := engine.Engine{Store: gen, Env: azuregen.ExpertEnv()}
	violations = len(eng.Run(prog).Violations)
	for k, prefix := range []string{"a-", "b-"} {
		var renamed []*config.Instance
		for _, orig := range gen.Instances() {
			cp := *orig
			cp.Key.Segs = slices.Clone(orig.Key.Segs)
			cp.Key.Segs[0].Inst = prefix + cp.Key.Segs[0].Inst
			renamed = append(renamed, &cp)
		}
		bodies[k], nonceOffs[k] = nonceRequest(tb, renamed)
	}
	return bodies, nonceOffs, violations
}

// stampNonce overwrites the body's ten nonce digits with n.
func stampNonce(body []byte, off int, n int) {
	d := strconv.AppendInt(nil, int64(n), 10)
	copy(body[off+10-len(d):off+10], d)
}

// coldServer registers spec on a fresh server and validates body once, so
// that the spec's lineage holds a full parse of it and a report to splice
// from. It returns the server and the number of specs.
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
// full, keeps a copy of its document and builds its store: the cold_xml
// path. In renamed, the expert_eval operation, two bodies of the expert
// substrate whose clusters are renamed apart take turns, each with a new
// nonce: every request is parsed in full and re-runs every spec. All
// four report retained-MB, what the server keeps on the heap after the
// last request (retainedMB), and the collector's share (collector.report).
func BenchmarkColdRequest(b *testing.B) {
	// The novel_xml corpus and its inferred suite take seconds to build,
	// so they are built once, for the first sub-benchmark that needs them.
	var spec string
	var template []byte
	var nonceOff int
	novel := func(b *testing.B) {
		if template == nil {
			spec, template, nonceOff = coldRequest(b, 1.0)
		}
	}
	ctx := context.Background()
	b.Run("one-value", func(b *testing.B) {
		novel(b)
		body := bytes.Clone(template)
		before := heapInuse()
		srv, specs := coldServer(b, spec, body)
		// One re-parsed request before the clock starts: the full parse
		// kept its buffer, so this one leaves the pool the buffer every
		// later request decodes into.
		var gc collector
		for i := 0; i <= b.N; i++ {
			if i == 1 {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				b.ResetTimer()
				gc = startCollector()
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
		gc.report(b)
		retainedMB(b, before, srv)
	})
	b.Run("moving-value", func(b *testing.B) {
		// Besides the nonce, each request changes one digit of a value in a
		// different 64 KiB stretch of the body, going round them: the
		// change moves, and the body drifts from the one parsed in full.
		novel(b)
		body := bytes.Clone(template)
		digits := movingDigits(body, 64<<10)
		before := heapInuse()
		srv, _ := coldServer(b, spec, body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		gc := startCollector()
		for i := 0; i < b.N; i++ {
			stampNonce(body, nonceOff, i+1)
			at := digits[i%len(digits)]
			body[at] = '0' + (body[at]-'0'+1)%10
			if _, err := srv.ValidateBody(ctx, "bench", "inferred", body); err != nil {
				b.Fatal(err)
			}
		}
		gc.report(b)
		retainedMB(b, before, srv)
	})
	b.Run("structural", func(b *testing.B) {
		// Settings go in behind the nonce's, one more per request.
		novel(b)
		at := nonceOff + bytes.Index(template[nonceOff:], []byte(`\u003e`)) + len(`\u003e`)
		body := slices.Grow(bytes.Clone(template), 64*(b.N+1))
		before := heapInuse()
		srv, _ := coldServer(b, spec, body)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		gc := startCollector()
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
		gc.report(b)
		retainedMB(b, before, srv)
	})
	b.Run("renamed", func(b *testing.B) {
		bodies, nonceOffs, violations := renamedRequests(b)
		before := heapInuse()
		srv := serve.New(serve.Config{Runner: runner.Options{Env: azuregen.ExpertEnv()}})
		if _, err := srv.RegisterSpec("bench", "expert", specs.AzureTypeA()); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		gc := startCollector()
		for i := 0; i < b.N; i++ {
			k := i % 2
			stampNonce(bodies[k], nonceOffs[k], i+1)
			resp, err := srv.ValidateBody(ctx, "bench", "expert", bodies[k])
			if err != nil {
				b.Fatal(err)
			}
			if resp.Report.SpecsReused != 0 || len(resp.Report.Violations) != violations {
				b.Fatalf("request %d reused %d specs and reported %d violations, want none reused and %d", i+1, resp.Report.SpecsReused, len(resp.Report.Violations), violations)
			}
		}
		gc.report(b)
		retainedMB(b, before, srv)
	})
}

// movingDigits returns the offset of one digit per stride of body, the
// first digit of the first value whose marker lies behind the stride's
// start and that begins with one.
func movingDigits(body []byte, stride int) []int {
	values := churnValues(body, -1)
	var at []int
	v := 0
	for lo := stride; lo < len(body); lo += stride {
		for v < len(values) && (values[v]-len(valueMarker) < lo || body[values[v]] < '0' || body[values[v]] > '9') {
			v++
		}
		if v == len(values) {
			break
		}
		at = append(at, values[v])
	}
	return at
}

// BenchmarkChurn is novel_xml's request under churn, re-validation on the
// deployment path measured where it happens: each request differs from
// the one before it in a seeded fraction of the document's values — 0.1 %,
// 1 % or 10 % of them, in one contiguous run (clustered) or scattered over
// the document (uniform) — and in its nonce, so no body is a result-cache
// hit, and is validated through Server.ValidateBody on the spec's
// lineage: the delta re-parse, the snapshot diff and the spec-level
// splice. Every other request re-values a fresh selection of the
// document's values (revalue, which keeps the body's length) and the one
// after it puts them back, so that no body differs from the first in more
// than the fraction: what a request costs does not depend on how many ran
// before it. Each sub-benchmark reports ms/op and B/op of the requests,
// rerun-specs, the specs a request re-ran on average, and full-ms, the
// average time of a fresh full run of the same body: its payloads
// through runner.Run with no Prev, internal/serve's fullRun oracle's
// path, over the suite compiled once, timed outside the clock. The full
// runs are the answer check: at the first request, which the clock
// skips, and at seeded ones after it, the response's wire report must
// equal the full run's but for Duration and SpecsReused, or the benchmark
// fails.
func BenchmarkChurn(b *testing.B) {
	spec, template, nonceOff := coldRequest(b, 1.0)
	values := churnValues(template, nonceOff)
	prog, err := runner.New(runner.Options{}).Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, spread := range []string{"clustered", "uniform"} {
		for _, frac := range []float64{0.001, 0.01, 0.1} {
			b.Run(fmt.Sprintf("%s-%g%%", spread, 100*frac), func(b *testing.B) {
				body := bytes.Clone(template)
				srv, _ := coldServer(b, spec, body)
				n := max(int(frac*float64(len(values))), 1)
				order := slices.Clone(values) // uniform's partial shuffle
				rng := rand.New(rand.NewSource(2015))
				var edited []int
				var rerun, checks int
				var full time.Duration
				b.ReportAllocs()
				for i := 0; i <= b.N; i++ {
					b.StopTimer()
					stampNonce(body, nonceOff, i+1)
					if i%2 == 1 {
						for _, at := range edited {
							body[at] = template[at]
						}
					} else {
						if spread == "clustered" {
							lo := rng.Intn(len(values) - n + 1)
							edited = values[lo : lo+n]
						} else {
							for k := range n {
								j := k + rng.Intn(len(order)-k)
								order[k], order[j] = order[j], order[k]
							}
							edited = order[:n]
						}
						for _, at := range edited {
							revalue(body, at)
						}
					}
					check := i == 0 || rng.Intn(16) == 0
					if i == 1 {
						b.ResetTimer()
					}
					b.StartTimer()
					resp, err := srv.ValidateBody(ctx, "bench", "inferred", body)
					b.StopTimer()
					if err != nil {
						b.Fatal(err)
					}
					if i > 0 {
						rerun += resp.Report.SpecsRun - resp.Report.SpecsReused
					}
					if check {
						want, d := fullRunWire(b, prog, body)
						if got := wireModuloReuse(b, resp.Report); !bytes.Equal(got, want) {
							b.Fatalf("request %d diverged from a full run of its body:\n got: %.400s\nwant: %.400s", i, got, want)
						}
						full += d
						checks++
						runtime.GC() // the check's garbage is not the next request's mark work
					}
				}
				b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
				b.ReportMetric(float64(rerun)/float64(b.N), "rerun-specs")
				b.ReportMetric(float64(full)/1e6/float64(checks), "full-ms")
			})
		}
	}
}

// valueMarker opens a setting's value in the encoded body.
var valueMarker = []byte(`Value=\"`)

// churnValues returns the offset of every value in body that begins with
// a letter or a digit, in document order, but the nonce's at nonceOff:
// the bytes BenchmarkChurn re-values.
func churnValues(body []byte, nonceOff int) []int {
	var at []int
	for j := 0; ; {
		k := bytes.Index(body[j:], valueMarker)
		if k < 0 {
			return at
		}
		j += k + len(valueMarker)
		if c := body[j]; j != nonceOff && ('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z') {
			at = append(at, j)
		}
	}
}

// revalue changes the value at body[at] by its first byte, a letter or a
// digit, to the next one of its kind, round: the body keeps its length and
// its encoding.
func revalue(body []byte, at int) {
	switch c := body[at]; {
	case c == '9':
		body[at] = '0'
	case c == 'z':
		body[at] = 'a'
	case c == 'Z':
		body[at] = 'A'
	default:
		body[at] = c + 1
	}
}

// fullRunWire runs body's payloads through a fresh runner with no lineage
// — internal/serve's fullRun oracle, over prog and the environment
// coldServer's server runs in — and returns the wire report without its
// Duration and SpecsReused, and how long runner.Run took.
func fullRunWire(b *testing.B, prog *confvalley.Program, body []byte) ([]byte, time.Duration) {
	var req serve.ValidateRequest
	if err := json.Unmarshal(body, &req); err != nil {
		b.Fatal(err)
	}
	job := runner.Job{Prog: prog}
	for _, p := range req.Payloads {
		job.Payloads = append(job.Payloads, runner.Payload{Name: p.Name, Format: p.Format, Scope: p.Scope, Data: []byte(p.Data)})
	}
	r := runner.New(runner.Options{Env: azuregen.ExpertEnv()})
	start := time.Now()
	res, err := r.Run(context.Background(), job)
	d := time.Since(start)
	if err != nil {
		b.Fatal(err)
	}
	return wireModuloReuse(b, res.Report.Wire()), d
}

// wireModuloReuse encodes a wire report with the two fields a spliced run
// may differ in from a full one zeroed: Duration and SpecsReused.
func wireModuloReuse(b *testing.B, w *report.Wire) []byte {
	cp := *w
	cp.DurationNS, cp.SpecsReused = 0, 0
	out, err := json.Marshal(&cp)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// heapInuse returns the heap in use after two collections: the second
// frees what the first's finalizers released.
func heapInuse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// retainedMB reports as retained-MB the heap in use with srv alive beyond
// before, the heap in use before srv was built: the server's resident
// state after the benchmark's requests — the specs, each lineage's last
// parse and snapshot, the address memos, the result cache — and whatever
// the benchmark itself still holds, the request body.
func retainedMB(b *testing.B, before uint64, srv *serve.Server) {
	b.StopTimer()
	after := heapInuse()
	runtime.KeepAlive(srv)
	b.ReportMetric(float64(int64(after)-int64(before))/(1<<20), "retained-MB")
}

// collector holds what runtime/metrics said of the collector when a
// benchmark's clock started, so that reportCollector can state its share
// of the benchmark.
type collector struct{ gcCPU, allCPU float64 }

// collectorSamples are the metrics collector reads: the collector's
// estimated CPU time, all the CPU time GOMAXPROCS made available, and the
// heap the last cycle marked live.
func collectorSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
}

// startCollector reads the collector's counters; call it as the clock
// starts.
func startCollector() collector {
	s := collectorSamples()
	metrics.Read(s)
	return collector{gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// report reports gc-cpu-%, the collector's share of the CPU time
// available since start — the runtime adds to both counters as each
// cycle ends, so this is over the cycles that ended meanwhile, 0 when
// none did — and live-MB, the heap the last of them marked live.
func (c collector) report(b *testing.B) {
	s := collectorSamples()
	metrics.Read(s)
	share := 0.0
	if all := s[1].Value.Float64() - c.allCPU; all > 0 {
		share = 100 * (s[0].Value.Float64() - c.gcCPU) / all
	}
	b.ReportMetric(share, "gc-cpu-%")
	b.ReportMetric(float64(s[2].Value.Uint64())/(1<<20), "live-MB")
}

// oneValueRequestAllocs is what a one-value request allocates, counted in
// objects. A heap profile of BenchmarkColdRequest/one-value
// (-memprofilerate 1) puts 46 of them in these places, by layer:
//
//   - serve, 17: the content address's hex string and the result cache
//     key; the addressing's chunk flags, which escape with the addressing
//     into the decode; the decoder, the payload list, the payload's name
//     and the scratch it is unquoted in; the list of data strings, the
//     payload's patch, and the view the decode becomes, its marks in it;
//     the result cache's flight and its channel, and its two LRU
//     entries; the admission release closure, the response and its wire
//     report;
//   - runner, 6: the result, the job's sources and their fetch closure,
//     the store and its discovery counters, the run state;
//   - ingest, 5: the batch's parses map and its one entry, the load
//     report and its outcomes, the retained parse;
//   - driver, 2: the changed value's region text, and the change with its
//     instance copy (one allocation);
//   - config, 9: the re-valued partition, its copied class list and the
//     copied class; the snapshot; the delta's class list and its two
//     overlap indexes, each a map that grows once;
//   - engine and report, 7: the incremental run's state, three per spec
//     batch, three to assemble the spliced report.
//
// The test, at scale 0.2, counts one more. Lower it when a change removes
// an allocation.
const oneValueRequestAllocs = 47

// A one-value request costs its change, not its payload: at Type A scale
// 0.2 (a 1 MB body), once a first request has been parsed in full, a
// request that differs from the previous one in the nonce decodes into the
// pooled payload buffer the previous request released, re-parses against
// the first parse and builds its store from that parse's partition. It
// allocates well under a quarter of its body — a fresh decode buffer alone
// is the body's size, and the walk's store was a rebuild of the whole
// partition. The cheapest of thirty requests is taken: a collection may
// empty the pool, and under the race detector sync.Pool drops a quarter
// of what it is given on purpose, so that nine requests in a row all
// missing it was seen. The cheapest request's allocation count is held to
// oneValueRequestAllocs as well.
func TestOneValueRequestAllocs(t *testing.T) {
	const requests = 30
	spec, body, nonceOff := coldRequest(t, 0.2)
	srv, specs := coldServer(t, spec, body)
	ctx := context.Background()
	var per, objs []uint64
	for i := 1; i <= requests; i++ {
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
		objs = append(objs, after.Mallocs-before.Mallocs)
	}
	if st := srv.Stats(); st.SourcesParsed != 1 || st.SourcesReparsed != requests {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 1, %d", st.SourcesParsed, st.SourcesReparsed, requests)
	}
	if least := slices.Min(per); least > uint64(len(body)/4) {
		t.Errorf("a one-value request with a %d-byte body allocated at least %d bytes (per request: %v), want at most a quarter of the body", len(body), least, per)
	}
	if least := slices.Min(objs); least > oneValueRequestAllocs {
		t.Errorf("a one-value request made at least %d allocations (per request: %v), want at most %d", least, objs, oneValueRequestAllocs)
	}
}

// BenchmarkCLIRun is the repository benchmark's cli_kv_b operation, for
// profiling (make profile-cli): what one cvcheck process does through the
// runner it calls — compile and lower the hand-written Type B suite, read
// and parse a Type B corpus written as a KV file, run every spec, render
// the text report — with a fresh runner per iteration, as a process that
// exits would leave things: the program and the plan it owns die with
// the iteration, so nothing needs releasing. It reports the collector's
// share (collector.report).
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
	gc := startCollector()
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
	gc.report(b)
}

// BenchmarkKVParse is the KV scan and store build of the repository
// benchmark's cli_kv_b operation: the Type B document at scale 0.05
// (115,344 lines over 712 key prefixes) parsed into a partition by the
// entry the loader calls (driver.ParsePartition), projected through the
// Type B suite's projection as the runner loads it and in full, in three
// line orders. param-major is the document as generated, so each prefix
// recurs 162 times and never on adjacent lines, while the leaf repeats
// from line to line; scope-major is its lines sorted, so a prefix's lines
// are adjacent and the leaf changes on every line; one-off-prefix gives
// every line a prefix of its own (the cluster instance name made unique),
// the worst case for prefix interning. The last two miss the scan's
// last-leaf reuse. Nothing writes to the documents, so one buffer serves
// every iteration. Each reports the collector's share (collector.report).
func BenchmarkKVParse(b *testing.B) {
	doc := azuregen.RenderKV(azuregen.GenerateB(0.05, 2015).Store)
	var lines [][]byte // each with its newline
	for rest := doc; len(rest) > 0; {
		n := bytes.IndexByte(rest, '\n') + 1
		if n == 0 {
			n = len(rest)
		}
		lines, rest = append(lines, rest[:n]), rest[n:]
	}
	sorted := slices.Clone(lines)
	slices.SortFunc(sorted, bytes.Compare)
	var oneOff bytes.Buffer
	for i, line := range lines {
		rest, ok := bytes.CutPrefix(line, []byte("Cluster::"))
		if !ok {
			b.Fatalf("line %d does not start with a cluster: %q", i, line)
		}
		fmt.Fprintf(&oneOff, "Cluster::u%d-%s", i, rest)
	}
	prog, err := compiler.Compile(specs.AzureTypeB())
	if err != nil {
		b.Fatal(err)
	}
	proj := plan.For(prog).Projection
	for _, order := range []struct {
		name string
		doc  []byte
	}{
		{"param-major", doc},
		{"scope-major", bytes.Join(sorted, nil)},
		{"one-off-prefix", oneOff.Bytes()},
	} {
		for _, load := range []struct {
			name string
			proj *driver.Projection
		}{{"projected", proj}, {"full", nil}} {
			b.Run(order.name+"/"+load.name, func(b *testing.B) {
				b.SetBytes(int64(len(order.doc)))
				b.ReportAllocs()
				gc := startCollector()
				for i := 0; i < b.N; i++ {
					part, parsed, err := driver.ParsePartition(context.Background(), "kv", order.doc, "typeb.kv", "", load.proj)
					if err != nil || parsed != len(lines) || part.Len() == 0 {
						b.Fatalf("parsed %d of %d lines into %v: %v", parsed, len(lines), part, err)
					}
				}
				gc.report(b)
			})
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
