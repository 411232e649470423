// Package loadgen is the multi-core load-generation harness (ROADMAP:
// "load harness"): it drives N concurrent validation sessions over one
// spec program and one configuration payload and reports aggregate
// throughput plus round-latency percentiles. Two drivers share the
// measurement core — InProcess calls Session.RunProgram directly, the
// library path an embedding service would take, and HTTP drives a real
// serve.Server over loopback HTTP through the public client, the full
// service path including admission control and payload (re)parsing.
//
// Every round does the work one service request does: parse the
// payload into a fresh store, then validate it. Throughput numbers
// from the two drivers are therefore directly comparable; the gap
// between them is the transport plus admission overhead.
//
// The PayloadFor hook varies the payload per (worker, round) — the
// cache experiments use it to model repeat and low-churn request
// streams — and the HTTP driver passes the service's cache knobs
// through and reports the server's cache counters alongside the
// client-side latency percentiles.
package loadgen

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"confvalley"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

// Options configures one load-generation run.
type Options struct {
	// Workers is the number of concurrent sessions/clients (default 4).
	Workers int
	// Rounds is the number of validation rounds per worker (default 8).
	Rounds int
	// Spec is the CPL program source all workers validate with.
	Spec string
	// Format and Payload are the configuration each round parses and
	// validates, in a driver-registered serialization (e.g. "xml").
	Format  string
	Payload []byte
	// PayloadFor, when set, overrides Payload per round — the hook the
	// cache experiments use to model repeat (constant) and low-churn
	// (mostly-constant) request streams.
	PayloadFor func(worker, round int) []byte
	// Parallel is each session's engine parallelism (0 = per-core).
	Parallel int

	// Service-side cache configuration, HTTP driver only; passed through
	// to serve.Config verbatim (0 = server default, negative = disable).
	ResultCacheSize int
	NoIncremental   bool
}

// payload returns the round's configuration bytes.
func (o Options) payload(worker, round int) []byte {
	if o.PayloadFor != nil {
		return o.PayloadFor(worker, round)
	}
	return o.Payload
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Rounds <= 0 {
		o.Rounds = 8
	}
	return o
}

// Result is one driver's aggregate measurement.
type Result struct {
	Mode              string  `json:"mode"` // "in-process" or "http"
	Workers           int     `json:"workers"`
	Rounds            int     `json:"rounds_per_worker"`
	Validations       int     `json:"validations"`
	Errors            int     `json:"errors"`
	WallMS            float64 `json:"wall_ms"`
	ValidationsPerSec float64 `json:"validations_per_sec"`
	P50MS             float64 `json:"p50_ms"`
	P95MS             float64 `json:"p95_ms"`
	P99MS             float64 `json:"p99_ms"`
	// GOMAXPROCS and HostCPUs record the execution environment;
	// SingleCoreHost flags numbers taken where GOMAXPROCS > 1 merely
	// timeshares one hardware thread, so "parallel" throughput gains
	// cannot appear no matter how well the engine scales.
	GOMAXPROCS     int  `json:"gomaxprocs"`
	HostCPUs       int  `json:"host_cpus"`
	SingleCoreHost bool `json:"single_core_host"`

	// Server-side counters, HTTP mode only: how many requests actually
	// executed a validation versus being served by the result cache,
	// coalesced onto an identical in-flight request, or spliced
	// incrementally. In-process mode leaves them zero.
	ServerValidations int64 `json:"server_validations,omitempty"`
	ResultCacheHits   int64 `json:"result_cache_hits,omitempty"`
	Coalesced         int64 `json:"coalesced_requests,omitempty"`
	IncrementalRuns   int64 `json:"incremental_runs,omitempty"`
	SpecsReused       int64 `json:"specs_reused,omitempty"`
}

// InProcess measures the library path: each worker owns a Session and
// validates the payload Rounds times via RunProgram.
func InProcess(opts Options) (Result, error) {
	opts = opts.withDefaults()
	sessions := make([]*confvalley.Session, opts.Workers)
	progs := make([]*confvalley.Program, opts.Workers)
	for w := range sessions {
		s := confvalley.NewSession()
		s.Parallel = opts.Parallel
		prog, err := s.Compile(opts.Spec)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: compile: %w", err)
		}
		sessions[w], progs[w] = s, prog
	}
	ctx := context.Background()
	return run("in-process", opts, func(w, r int) error {
		st := config.NewStore()
		if _, err := driver.LoadInto(st, opts.Format, opts.payload(w, r), "payload", ""); err != nil {
			return err
		}
		_, _, err := sessions[w].RunProgram(ctx, progs[w], st)
		return err
	})
}

// HTTP measures the service path: a serve.Server on a loopback
// listener, one client per worker, the payload shipped inside every
// validate request. MaxConcurrent is set to the worker count so the
// harness measures validation throughput, not queueing policy.
func HTTP(opts Options) (Result, error) {
	opts = opts.withDefaults()
	srv := serve.New(serve.Config{
		MaxConcurrent:   opts.Workers,
		ResultCacheSize: opts.ResultCacheSize,
		NoIncremental:   opts.NoIncremental,
		Runner:          runner.Options{Parallel: opts.Parallel},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx := context.Background()
	clients := make([]*serve.Client, opts.Workers)
	for w := range clients {
		clients[w] = &serve.Client{Base: ts.URL, Tenant: "load"}
	}
	if _, err := clients[0].Register(ctx, "suite", opts.Spec); err != nil {
		return Result{}, fmt.Errorf("loadgen: register: %w", err)
	}
	res, err := run("http", opts, func(w, r int) error {
		req := serve.ValidateRequest{Payloads: []serve.PayloadRef{{
			Name: "payload", Format: opts.Format, Data: string(opts.payload(w, r)),
		}}}
		_, verr := clients[w].Validate(ctx, "suite", req)
		return verr
	})
	st := srv.Stats()
	res.ServerValidations = st.Validations
	res.ResultCacheHits = st.ResultCacheHits
	res.Coalesced = st.CoalescedRequests
	res.IncrementalRuns = st.IncrementalRuns
	res.SpecsReused = st.SpecsReused
	return res, err
}

// run is the shared measurement core: Workers goroutines each execute
// Rounds rounds, every round individually timed.
func run(mode string, opts Options, round func(worker, round int) error) (Result, error) {
	durs := make([]time.Duration, opts.Workers*opts.Rounds)
	errs := make([]int, opts.Workers)
	var firstErr error
	var errOnce sync.Once

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for r := 0; r < opts.Rounds; r++ {
				t0 := time.Now()
				err := round(w, r)
				durs[w*opts.Rounds+r] = time.Since(t0)
				if err != nil {
					errs[w]++
					errOnce.Do(func() { firstErr = err })
				}
			}
		}(w)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)

	res := Result{
		Mode:        mode,
		Workers:     opts.Workers,
		Rounds:      opts.Rounds,
		Validations: len(durs),
		WallMS:      float64(wall.Nanoseconds()) / 1e6,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		HostCPUs:    runtime.NumCPU(),
	}
	res.SingleCoreHost = res.HostCPUs < 2
	for _, n := range errs {
		res.Errors += n
	}
	res.Validations -= res.Errors
	if wall > 0 {
		res.ValidationsPerSec = float64(res.Validations) / wall.Seconds()
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	res.P50MS = percentileMS(durs, 50)
	res.P95MS = percentileMS(durs, 95)
	res.P99MS = percentileMS(durs, 99)
	return res, firstErr
}

// percentileMS is the nearest-rank percentile of a sorted duration
// slice, in milliseconds.
func percentileMS(sorted []time.Duration, pct int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := (pct*len(sorted) + 99) / 100
	if i < 1 {
		i = 1
	}
	if i > len(sorted) {
		i = len(sorted)
	}
	return float64(sorted[i-1].Nanoseconds()) / 1e6
}
