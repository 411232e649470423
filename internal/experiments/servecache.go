package experiments

// The service-cache experiment (DESIGN.md §12): drive the HTTP service
// with the request streams the caching stack is built for — repeated
// payloads and low-churn payloads — and measure what each layer buys
// over a cache-disabled cold baseline. Before any timing, an identity
// gate re-validates every distinct payload against a cold CLI-path
// runner and panics unless the service's answers are byte-identical
// modulo duration and reuse accounting, whichever cache layer served
// them. cvbench's `servecache` verb prints it and BENCH_servecache.json
// records one run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/infer"
	"confvalley/internal/loadgen"
	"confvalley/internal/report"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

// ServeCacheRow is one scenario's measurement.
type ServeCacheRow struct {
	Scenario string         `json:"scenario"`
	Result   loadgen.Result `json:"result"`
	// SpeedupP50 is the cold baseline's p50 divided by this scenario's —
	// how much faster the median request got with the caches on.
	SpeedupP50 float64 `json:"speedup_p50_vs_cold"`
}

// ServeCacheResult aggregates the service-cache experiment.
type ServeCacheResult struct {
	Instances int             `json:"instances"`
	Specs     int             `json:"specs"`
	Rows      []ServeCacheRow `json:"scenarios"`
}

// ServeCache measures the service-side caching stack on an inferred
// Type A workload: a cold baseline with every cache disabled, a repeat
// stream (identical payload every round — the fleet-of-replicas shape),
// and two low-churn streams mutating 0.1% and 1% of instances per
// round (the incremental-validation shape).
func ServeCache(cfg Config) ServeCacheResult {
	prevProcs := runtime.GOMAXPROCS(0)
	if prevProcs < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prevProcs)
	}

	a := azuregen.GenerateA(cfg.ScaleA, cfg.Seed)
	inf := infer.Infer(a.Store, infer.Defaults())
	spec := inf.GenerateCPL()
	base := azuregen.RenderXML(a.Store)

	const workers, rounds = 4, 6
	churnStream := func(frac float64) [][]byte {
		variants := make([][]byte, rounds)
		for r := range variants {
			variants[r] = churnXML(a.Store, frac, r)
		}
		return variants
	}
	mille, cent := churnStream(0.001), churnStream(0.01)

	// Correctness before speed: every distinct payload the scenarios
	// will send must come back byte-identical to a cold CLI-path run.
	gatePayloads := append([][]byte{base}, mille...)
	gatePayloads = append(gatePayloads, cent...)
	serveCacheIdentityGate(spec, gatePayloads)

	out := ServeCacheResult{Instances: a.Store.Len(), Specs: len(inf.Constraints)}
	scenarios := []struct {
		name string
		opts loadgen.Options
	}{
		{"cold", loadgen.Options{ResultCacheSize: -1, NoIncremental: true}},
		{"repeat", loadgen.Options{}},
		{"churn-0.1%", loadgen.Options{PayloadFor: func(w, r int) []byte { return mille[r%rounds] }}},
		{"churn-1%", loadgen.Options{PayloadFor: func(w, r int) []byte { return cent[r%rounds] }}},
	}

	cfg.printf("Service cache: %d workers × %d rounds, %d instances, %d specs (GOMAXPROCS=%d)\n",
		workers, rounds, out.Instances, out.Specs, runtime.GOMAXPROCS(0))
	cfg.printf("%-12s %10s %10s %8s %8s %8s %8s %8s\n",
		"scenario", "valid/sec", "p50_ms", "x_cold", "runs", "hits", "coalesc", "reused")
	for _, sc := range scenarios {
		opts := sc.opts
		opts.Workers, opts.Rounds = workers, rounds
		opts.Spec, opts.Format, opts.Payload = spec, "xml", base
		res, err := loadgen.HTTP(opts)
		if err != nil {
			panic(fmt.Sprintf("servecache (%s): %v", sc.name, err))
		}
		row := ServeCacheRow{Scenario: sc.name, Result: res}
		if len(out.Rows) > 0 && res.P50MS > 0 {
			row.SpeedupP50 = out.Rows[0].Result.P50MS / res.P50MS
		}
		out.Rows = append(out.Rows, row)
		cfg.printf("%-12s %10.1f %10.3f %8.1f %8d %8d %8d %8d\n",
			row.Scenario, res.ValidationsPerSec, res.P50MS, row.SpeedupP50,
			res.ServerValidations, res.ResultCacheHits, res.Coalesced, res.SpecsReused)
	}
	return out
}

// churnXML renders the corpus with a round-dependent window of ~frac of
// its instances mutated — the low-churn request stream, deterministic
// per (frac, round).
func churnXML(st *config.Store, frac float64, round int) []byte {
	ins := st.Instances()
	n := int(frac * float64(len(ins)))
	if n < 1 {
		n = 1
	}
	variant := config.NewStore()
	lo := (round * n) % len(ins)
	for i, in := range ins {
		cp := *in
		if d := (i - lo + len(ins)) % len(ins); d < n {
			cp.Value = cp.Value + "~churned"
		}
		variant.Add(&cp)
	}
	return azuregen.RenderXML(variant)
}

// serveCacheIdentityGate validates each payload through a warm service
// twice — the second pass hits the result cache — and through a fresh
// cold runner, panicking unless all three reports agree byte-for-byte
// modulo duration_ns and specs_reused.
func serveCacheIdentityGate(spec string, payloads [][]byte) {
	srv := serve.New(serve.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()
	c := &serve.Client{Base: hs.URL, Tenant: "gate"}
	if _, err := c.Register(ctx, "suite", spec); err != nil {
		panic(fmt.Sprintf("servecache gate: register: %v", err))
	}

	canon := func(w *report.Wire) string {
		cp := *w
		cp.DurationNS = 0
		cp.SpecsReused = 0
		b, err := json.Marshal(&cp)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	for pass := 0; pass < 2; pass++ {
		for i, payload := range payloads {
			resp, err := c.Validate(ctx, "suite", serve.ValidateRequest{
				Payloads: []serve.PayloadRef{{Name: "corpus.xml", Format: "xml", Data: string(payload)}},
			})
			if err != nil {
				panic(fmt.Sprintf("servecache gate: validate payload %d: %v", i, err))
			}
			cold, err := runner.New(runner.Options{}).Run(ctx, runner.Job{
				SpecSrc:  spec,
				Payloads: []runner.Payload{{Name: "corpus.xml", Format: "xml", Data: payload}},
			})
			if err != nil {
				panic(fmt.Sprintf("servecache gate: cold run payload %d: %v", i, err))
			}
			if got, want := canon(resp.Report), canon(cold.Report.Wire()); got != want {
				panic(fmt.Sprintf("servecache gate: pass %d payload %d diverged from cold run\nservice: %.400s\n   cold: %.400s",
					pass, i, got, want))
			}
			if !bytes.Equal(payload, payloads[i]) {
				panic("servecache gate: payload mutated during validation")
			}
		}
	}
}
