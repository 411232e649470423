package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/plan"
	"confvalley/internal/report"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

// The per-layer metrics, printed by a --trace 1 run. A layer is a Go
// package; _ms values are medians over the traced operations; a metric
// the workload bypasses prints 0. README.md says which end-to-end
// metric each should move.
var perLayer = []metricDef{
	{"serve.transport_ms", "ms"},
	{"serve.rawkey_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.validate_ms", "ms"},
	{"serve.register_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced", "count"},
	{"serve.incremental_runs", "count"},
	{"serve.rejected_busy", "count"},
	{"ingest.digest_ms", "ms"},
	{"ingest.snapshot_cache_hits", "count"},
	{"ingest.snapshot_cache_evictions", "count"},
	{"driver.parse_ms", "ms"},
	{"driver.parse_mb_s", "MB/s"},
	{"driver.instances", "count"},
	{"config.build_ms", "ms"},
	{"config.seal_ms", "ms"},
	{"config.diff_ms", "ms"},
	{"config.diff_keys", "count"},
	{"config.discover_queries", "count"},
	{"config.discover_cache_hits", "count"},
	{"config.discover_scanned", "count"},
	{"compiler.compile_ms", "ms"},
	{"compiler.specs", "count"},
	{"plan.lower_ms", "ms"},
	{"plan.cache_hits", "count"},
	{"plan.cache_misses", "count"},
	{"engine.run_ms", "ms"},
	{"engine.run_seq_ms", "ms"},
	{"engine.incremental_ms", "ms"},
	{"engine.specs_run", "count"},
	{"engine.specs_reused", "count"},
	{"engine.instances_checked", "count"},
	{"engine.alloc_mb", "MB"},
	{"report.encode_ms", "ms"},
	{"report.render_ms", "ms"},
	{"report.bytes", "B"},
	{"report.violations", "count"},
	{"runner.run_ms", "ms"},
	{"process.cpu_ms_per_op", "ms"},
	{"process.allocs_per_op", "count"},
	{"process.peak_rss_mb", "MB"},
	{"process.gc_count", "count"},
	{"process.gc_pause_ms", "ms"},
	{"loadgen.latency_tail_ms", "ms"},
	{"loadgen.ops", "count"},
	{"trace.whole_ms", "ms"},
	{"trace.ops", "count"},
	{"trace.coverage_pct", "%"},
}

// minTracedOps is how many operations a traced run takes apart at
// least, however short its window.
const minTracedOps = 20

// offPathEvery: the calls off the request's path cost several
// operations' worth of time, so every fourth traced operation makes them.
const offPathEvery = 4

// span is one timed call into a layer. Spans of one operation share Op;
// Parent is the span that caused this one, 0 for the operation itself.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and the counts read at the same boundaries in
// memory; they go to a file when the run ends.
type tracer struct {
	t0     time.Time
	op     int
	spans  []span
	stack  []int
	counts map[string][]float64
}

func (t *tracer) since() int64 { return int64(time.Since(t.t0)) }

// span times f as a child of the span in progress.
func (t *tracer) span(name string, f func()) {
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name, Start: t.since()})
	t.stack = append(t.stack, id)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id-1].End = t.since()
}

// holdGC collects the heap and holds the collector off until the
// returned function is called. A fixed allocation sequence otherwise
// parks every collection on the same stage, and the parts stop adding
// up.
func holdGC() (release func()) {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	return func() { debug.SetGCPercent(old) }
}

// whole records the real operation; the span is the wait its caller
// saw, without the check.
func (t *tracer) whole(op func() (time.Duration, error)) error {
	start := t.since()
	lat, err := op()
	t.spans = append(t.spans, span{Op: t.op, ID: len(t.spans) + 1, Name: "trace.whole", Start: start, End: start + int64(lat)})
	return err
}

func (t *tracer) count(name string, v float64) {
	t.counts[name] = append(t.counts[name], v)
}

// ms returns the durations of every span called name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// coverage is, per operation, the share of the real request's time the
// replayed top-level stages add up to.
func (t *tracer) coverage() []float64 {
	whole := make(map[int]int64)
	replay := make(map[int]int)
	for _, s := range t.spans {
		switch s.Name {
		case "trace.whole":
			whole[s.Op] = s.End - s.Start
		case "replay":
			replay[s.Op] = s.ID
		}
	}
	staged := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.Parent == replay[s.Op] {
			staged[s.Op] += s.End - s.Start
		}
	}
	var out []float64
	for op, w := range whole {
		if w > 0 {
			out = append(out, 100*float64(staged[op])/float64(w))
		}
	}
	return out
}

// traced is the --trace 1 window. A fifth of it runs exactly as the
// timed run does and yields the loadgen.*, process.* and counter
// metrics; the rest takes operations apart, one at a time.
func traced(cfg runConfig, in *inputs, fe frontEnd, out map[string]metric, log io.Writer) (load, error) {
	vals := make(map[string]float64)
	set := func(name string, v float64) { vals[name] = v }
	begin := time.Now()

	var m0, m1 runtime.MemStats
	svc, _ := fe.(*service)
	var s0 serve.StatsInfo
	if svc != nil {
		s0 = svc.srv.Stats()
	}
	hits0, misses0 := plan.CacheStats()
	cpu0 := cpuTime()
	runtime.ReadMemStats(&m0)
	l := drive(fe, cfg.window/5)
	runtime.ReadMemStats(&m1)
	ops := float64(len(l.latMS))
	if ops == 0 {
		return l, nil
	}
	set("process.cpu_ms_per_op", ms(cpuTime()-cpu0)/ops)
	set("process.allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/ops)
	set("process.peak_rss_mb", peakRSSMB())
	set("process.gc_count", float64(m1.NumGC-m0.NumGC))
	set("process.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	set("loadgen.latency_tail_ms", tail(l.latMS))
	set("loadgen.ops", ops)
	hits1, misses1 := plan.CacheStats()
	set("plan.cache_hits", float64(hits1-hits0))
	set("plan.cache_misses", float64(misses1-misses0))
	if svc != nil {
		s1 := svc.srv.Stats()
		set("serve.cache_hit_ratio", float64(s1.ResultCacheHits-s0.ResultCacheHits)/float64(l.attempted))
		set("serve.coalesced", float64(s1.CoalescedRequests-s0.CoalescedRequests))
		set("serve.incremental_runs", float64(s1.IncrementalRuns-s0.IncrementalRuns))
		set("serve.rejected_busy", float64(s1.RejectedBusy-s0.RejectedBusy))
		set("ingest.snapshot_cache_hits", float64(s1.SnapshotCacheHits-s0.SnapshotCacheHits))
		set("ingest.snapshot_cache_evictions", float64(snapshotEvictions(s1)-snapshotEvictions(s0)))
	}

	tr := &tracer{t0: time.Now(), counts: make(map[string][]float64)}
	prog, err := compiler.Compile(in.spec)
	if err != nil {
		return l, err
	}
	ln := &lineage{prog: prog}
	for tr.op < minTracedOps || time.Since(begin) < cfg.window {
		tr.op++
		l.attempted++
		release := holdGC()
		opErr := tr.whole(fe.op)
		if opErr == nil {
			tr.span("replay", func() { err = fe.replay(tr, ln) })
		}
		release()
		if opErr == nil && err == nil && tr.op%offPathEvery == 1 {
			release := holdGC()
			tr.span("offpath", func() { err = fe.offPath(tr, ln) })
			release()
		}
		if err != nil {
			return l, fmt.Errorf("%s: traced operation %d: %w", cfg.workload, tr.op, err)
		}
		if opErr != nil {
			l.failed++
			if l.firstErr == nil {
				l.firstErr = opErr
			}
		}
	}

	// A span is named after its metric: "driver.parse" is driver.parse_ms.
	for _, d := range perLayer {
		if name, ok := strings.CutSuffix(d.name, "_ms"); ok {
			if v := tr.ms(name); len(v) > 0 {
				set(d.name, median(v))
			}
		}
	}
	for name, vs := range tr.counts {
		set(name, median(vs))
	}
	if p := vals["driver.parse_ms"]; p > 0 {
		set("driver.parse_mb_s", float64(in.truth.PayloadLen)/(1<<20)/(p/1e3))
	}
	set("trace.ops", float64(tr.op))
	set("trace.coverage_pct", median(tr.coverage()))
	for _, d := range perLayer {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	fmt.Fprintf(log, "traced %s: %d loadgen samples, %d operations taken apart, coverage %.1f%%\n",
		cfg.workload, len(l.latMS), tr.op, vals["trace.coverage_pct"])
	return l, tr.write(cfg)
}

func (t *tracer) write(cfg runConfig) error {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed)), b, 0o644)
}

// lineage is the benchmark's own copy of what the service keeps per
// registered spec — program, last snapshot, last report — so that a
// replayed request can be spliced against its predecessor the way the
// real one is. It also carries one replay's products to offPath.
type lineage struct {
	prog *compiler.Program
	snap *config.Snapshot // of the latest replayed request
	prev *config.Snapshot // of the one before
	rep  *report.Report
	n    int // requests replayed

	st       *config.Store
	payloads []runner.Payload
}

// replay for the service: a request of the same kind as the one just
// answered, through the public calls the server makes for it, one span
// per call. An error means the trace itself is broken.
func (s *service) replay(tr *tracer, ln *lineage) (err error) {
	ctx := context.Background()
	in, resp := s.in, s.last
	tr.countAnswer(resp.Report.InstancesChecked, resp.Report.SpecsRun, resp.Report.SpecsReused, len(resp.Report.Violations), s.lastLen)

	rb := in.body(ln.n)
	ln.n++
	tr.span("serve.transport", func() {
		var status int
		if status, _, _, err = s.post(s.probe, rb.buf); err == nil && status != http.StatusNotFound {
			err = fmt.Errorf("transport probe answered %d, want 404", status)
		}
	})
	if err != nil {
		return err
	}
	tr.span("serve.rawkey", func() { _ = sha256.Sum256(rb.buf) })
	if !in.novel {
		// An alias hit: the stored response goes straight back out.
		tr.span("report.encode", func() { err = encodeResponse(resp) })
		return err
	}
	ln.payloads = nil
	tr.span("serve.decode", func() {
		var req serve.ValidateRequest
		err = json.Unmarshal(rb.buf, &req)
		for _, p := range req.Payloads {
			ln.payloads = append(ln.payloads, runner.Payload{Name: p.Name, Format: p.Format, Scope: p.Scope, Data: []byte(p.Data)})
		}
	})
	if err != nil {
		return err
	}
	var hash string
	tr.span("ingest.digest", func() { hash = runner.HashPayloads(ln.payloads) })
	var ins []*config.Instance
	tr.span("driver.parse", func() {
		p := ln.payloads[0]
		ins, err = driver.ParseScoped(ctx, p.Format, p.Data, p.Name, p.Scope)
	})
	if err != nil {
		return err
	}
	tr.count("driver.instances", float64(len(ins)))
	tr.span("config.build", func() {
		ln.st = config.NewStore()
		ln.st.AddAll(ins)
	})
	ln.prev = ln.snap
	tr.span("config.seal", func() {
		ln.st.SetContentID(hash)
		ln.snap = ln.st.Snapshot()
	})
	tr.span("engine.incremental", func() {
		eng := engine.Engine{Store: ln.st, Env: in.env}
		ln.rep = eng.RunIncrementalContext(ctx, ln.prog, ln.prev, ln.rep)
	})
	tr.countDiscovery(ln.st)
	tr.span("report.encode", func() {
		err = encodeResponse(&serve.ValidateResponse{Tenant: tenantName, Spec: specName, Report: ln.rep.Wire(), Load: resp.Load, Code: resp.Code})
	})
	return err
}

// offPath for the service: calls a request does not make, or makes only
// inside another, on the products of the latest replay.
func (s *service) offPath(tr *tracer, ln *lineage) (err error) {
	ctx := context.Background()
	in := s.in
	tr.span("serve.validate", func() {
		rb := s.nextBody()
		var resp *serve.ValidateResponse
		if resp, err = s.srv.ValidateBody(ctx, tenantName, specName, rb.buf); err == nil {
			err = s.check(rb, resp)
		}
	})
	if err != nil || !in.novel {
		return err
	}
	tr.span("config.diff", func() {
		d := ln.snap.Diff(ln.prev)
		tr.count("config.diff_keys", float64(d.Len()))
	})
	in.runParallel(tr, ln.prog, ln.st)
	in.runSequential(tr, ln.prog, ln.st)
	tr.span("runner.run", func() {
		_, err = runner.New(runner.Options{Env: in.env}).Run(ctx, runner.Job{Prog: ln.prog, Payloads: ln.payloads})
	})
	if err != nil {
		return err
	}
	tr.span("report.render", func() { err = ln.rep.Render(io.Discard) })
	if err != nil {
		return err
	}
	tr.span("serve.register", func() { _, err = s.srv.RegisterSpec(tenantName, "scratch", in.spec) })
	if err != nil {
		return err
	}
	var prog *compiler.Program
	tr.span("compiler.compile", func() { prog, err = compiler.Compile(in.spec) })
	if err != nil {
		return err
	}
	tr.count("compiler.specs", float64(len(prog.Specs)))
	tr.span("plan.lower", func() { plan.Lower(prog) })
	return nil
}

// runParallel times a full run with default parallelism on every
// processor the host has: the one place parallelism inside a request can
// show, since the load itself runs on one.
func (in *inputs) runParallel(tr *tracer, prog *compiler.Program, st *config.Store) {
	tr.span("engine.run", func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
		eng := engine.Engine{Store: st, Env: in.env}
		eng.RunContext(context.Background(), prog)
	})
}

// runSequential times a full sequential run and what it allocates.
func (in *inputs) runSequential(tr *tracer, prog *compiler.Program, st *config.Store) *report.Report {
	var m0, m1 runtime.MemStats
	var rep *report.Report
	runtime.ReadMemStats(&m0)
	tr.span("engine.run_seq", func() {
		eng := engine.Engine{Store: st, Env: in.env, Opts: engine.Options{Parallel: 1}}
		rep = eng.RunContext(context.Background(), prog)
	})
	runtime.ReadMemStats(&m1)
	tr.count("engine.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	return rep
}

// countAnswer records what the real operation's answer said.
func (t *tracer) countAnswer(checked, specs, reused, violations, bytes int) {
	t.count("engine.instances_checked", float64(checked))
	t.count("engine.specs_run", float64(specs-reused))
	t.count("engine.specs_reused", float64(reused))
	t.count("report.violations", float64(violations))
	t.count("report.bytes", float64(bytes))
}

func (t *tracer) countDiscovery(st *config.Store) {
	t.count("config.discover_queries", float64(st.Stats.Queries()))
	t.count("config.discover_cache_hits", float64(st.Stats.CacheHits()))
	t.count("config.discover_scanned", float64(st.Stats.Scanned()))
}

// replay for the CLI: the same files through the calls runner.Run makes
// for them. The sequential run is the one GOMAXPROCS 1 gives the real
// invocation.
func (c *cli) replay(tr *tracer, ln *lineage) (err error) {
	rep := c.last.Report
	tr.countAnswer(rep.InstancesChecked, rep.SpecsRun, rep.SpecsReused, len(rep.Violations), c.out.Len())

	tr.span("compiler.compile", func() {
		var src []byte
		if src, err = os.ReadFile(c.specPath); err == nil {
			ln.prog, err = compiler.Compile(string(src))
		}
	})
	if err != nil {
		return err
	}
	tr.count("compiler.specs", float64(len(ln.prog.Specs)))
	var ins []*config.Instance
	tr.span("driver.parse", func() {
		var data []byte
		if data, err = os.ReadFile(c.data); err == nil {
			ins, err = driver.ParseScoped(context.Background(), "kv", data, c.data, "")
		}
	})
	if err != nil {
		return err
	}
	tr.count("driver.instances", float64(len(ins)))
	tr.span("config.build", func() {
		ln.st = config.NewStore()
		ln.st.AddAll(ins)
	})
	tr.span("config.seal", func() { ln.st.Snapshot() })
	tr.span("plan.lower", func() { plan.For(ln.prog) })
	ln.rep = c.in.runSequential(tr, ln.prog, ln.st)
	plan.Forget(ln.prog)
	tr.countDiscovery(ln.st)
	tr.span("report.render", func() { err = ln.rep.Render(io.Discard) })
	return err
}

// offPath for the CLI: the parallel engine, the whole of runner.Run,
// and the wire encoding cvcheck -json would print instead.
func (c *cli) offPath(tr *tracer, ln *lineage) (err error) {
	c.in.runParallel(tr, ln.prog, ln.st)
	plan.Forget(ln.prog)
	tr.span("runner.run", func() {
		var res *runner.Result
		if res, err = runner.New(runner.Options{}).Run(context.Background(), runner.Job{SpecPath: c.specPath, Sources: c.sources()}); err == nil {
			plan.Forget(res.Program)
		}
	})
	if err != nil {
		return err
	}
	tr.span("report.encode", func() { _, err = ln.rep.EncodeWire() })
	return err
}

// encodeResponse writes a response the way the transport does.
func encodeResponse(resp *serve.ValidateResponse) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	return enc.Encode(resp)
}

func snapshotEvictions(s serve.StatsInfo) int64 {
	var n int64
	for _, t := range s.Tenants {
		n += t.Caches.SnapshotCache.Evictions
	}
	return n
}

// cpuTime is the process's user plus system time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set from the
// kernel; 0 where /proc does not say.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
