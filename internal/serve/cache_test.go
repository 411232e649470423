package serve

// The caching contract of the service hot path: whichever layer serves
// a request — the result cache, a coalesced flight, an incremental run,
// or a cold full run — the wire report is byte-identical modulo the
// timing and reuse-accounting fields (duration_ns, specs_reused). These
// tests pin that, plus the bounds and invalidation rules that make the
// caches safe to leave on.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confvalley"
	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/infer"
	"confvalley/internal/predicate"
	"confvalley/internal/report"
	"confvalley/internal/runner"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

// wireModuloCaching re-encodes a wire report with the fields the
// caching layers are allowed to change zeroed: duration_ns (timing)
// and specs_reused (reuse accounting).
func wireModuloCaching(t *testing.T, w *report.Wire) []byte {
	t.Helper()
	cp := *w
	cp.DurationNS = 0
	cp.SpecsReused = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const cacheSpec = `$app.timeout -> int & [1, 60]
$app.retries -> int & [0, 5]
$db.host -> nonempty
`

func kvRequest(data string) ValidateRequest {
	return ValidateRequest{Payloads: []PayloadRef{{Name: "app.kv", Format: "kv", Data: data}}}
}

// requestBody encodes req as the body ValidateBody takes.
func requestBody(t testing.TB, req ValidateRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A repeated request is served from the result cache — no validation
// slot consumed, no run executed — and its body is byte-identical to
// a fresh runner's, modulo duration and reuse accounting.
func TestResultCacheRepeatByteIdentity(t *testing.T) {
	const data = "app.timeout = 400\napp.retries = 2\ndb.host = db1\n"
	ctx := context.Background()
	want, wantCode := fullRun(t, cacheSpec, kvRequest(data))

	srv, c := testClient(t, Config{})
	if _, err := c.Register(ctx, "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	first, err := c.Validate(ctx, "checks", kvRequest(data))
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Validate(ctx, "checks", kvRequest(data))
	if err != nil {
		t.Fatal(err)
	}

	for i, resp := range []*ValidateResponse{first, second} {
		if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, want) {
			t.Errorf("request %d diverged from a fresh run:\n got: %s\nwant: %s", i, got, want)
		}
		if resp.Code != wantCode {
			t.Errorf("request %d code = %d, fresh run = %d", i, resp.Code, wantCode)
		}
	}

	st := srv.Stats()
	if st.Validations != 1 {
		t.Errorf("validations = %d, want 1 (repeat must be a cache hit)", st.Validations)
	}
	if st.ResultCacheHits != 1 {
		t.Errorf("result cache hits = %d, want 1", st.ResultCacheHits)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Caches.ResultCache.Entries != 1 {
		t.Errorf("tenant cache stats = %+v", st.Tenants)
	}

	// The health endpoint surfaces the same per-tenant counters.
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Caches) != 1 || h.Caches[0].ResultCache.Hits != 1 {
		t.Errorf("health cache block = %+v", h.Caches)
	}
}

// A registration the journal refused is rolled back: the previous entry
// comes back with its lineage, and the cache is purged. A repeat of the
// body validated just before is then neither a cache hit nor a new
// payload; it diffs the repeat against the lineage's last snapshot, finds
// nothing changed, and answers as it did the first time and as a cold
// run of the reference interpreter does.
func TestRepeatAfterRolledBackRegistration(t *testing.T) {
	const data = "app.timeout = 400\napp.retries = 2\ndb.host = db1\n"
	ctx := context.Background()
	srv := New(Config{StateDir: t.TempDir()})
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	first, err := srv.ValidateBody(ctx, "acme", "checks", requestBody(t, kvRequest(data)))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err == nil {
		t.Fatal("a registration the journal refused was acknowledged")
	}
	second, err := srv.ValidateBody(ctx, "acme", "checks", requestBody(t, kvRequest(data)))
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Stats().Validations; n != 2 {
		t.Fatalf("validations = %d, want 2 (the rollback purges the cache)", n)
	}
	if r := second.Report; r.SpecsReused != r.SpecsRun || r.SpecsRun == 0 {
		t.Errorf("repeat reused %d of %d specs, want all", r.SpecsReused, r.SpecsRun)
	}

	cold := referenceReport(t, cacheSpec, []byte(data))
	want, code := wireModuloCaching(t, cold.Wire()), 1
	if cold.Passed() {
		code = 0
	}
	for i, resp := range []*ValidateResponse{first, second} {
		if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, want) {
			t.Errorf("request %d diverged from a cold interpreter run:\n got: %s\nwant: %s", i, got, want)
		}
		if resp.Code != code {
			t.Errorf("request %d code = %d, cold run = %d", i, resp.Code, code)
		}
	}
}

// A churned request stream takes the incremental path (delta re-parse,
// snapshot diff, spec-level reuse) yet stays byte-identical to running
// every request through a fresh runner. Two inputs: a 3-key KV payload
// where each request changes one key, and the inferred Type A suite over
// its corpus as XML, sent as is, repeated, and with 0.1 %, 1 % and 10 % of
// its instances churned, in one contiguous run and scattered.
func TestIncrementalChurnMatchesFullRuns(t *testing.T) {
	t.Run("kv", func(t *testing.T) {
		ctx := context.Background()
		srv, warm := testClient(t, Config{})
		if _, err := warm.Register(ctx, "checks", cacheSpec); err != nil {
			t.Fatal(err)
		}

		for round := 0; round < 5; round++ {
			data := fmt.Sprintf("app.timeout = %d\napp.retries = 2\ndb.host = db1\n", 10+round)
			req := kvRequest(data)
			warmResp, err := warm.Validate(ctx, "checks", req)
			if err != nil {
				t.Fatal(err)
			}
			got := wireModuloCaching(t, warmResp.Report)
			want, _ := fullRun(t, cacheSpec, req)
			if !bytes.Equal(got, want) {
				t.Errorf("round %d diverged:\nincremental: %s\n       cold: %s", round, got, want)
			}
			if round > 0 && warmResp.Report.SpecsReused != 2 {
				t.Errorf("round %d reused %d specs, want 2 (only $app.timeout churned)",
					round, warmResp.Report.SpecsReused)
			}
		}

		st := srv.Stats()
		if st.IncrementalRuns != 4 || st.SpecsReused != 8 {
			t.Errorf("incremental accounting = %d runs / %d reused, want 4 / 8",
				st.IncrementalRuns, st.SpecsReused)
		}
		if st.ResultCacheHits != 0 {
			t.Errorf("distinct payloads hit the result cache %d times", st.ResultCacheHits)
		}
		// Each request changed one value of the one before: after the first
		// full parse every payload is a re-parse, and every validation
		// loaded its one payload cleanly.
		if st.SourcesParsed != 1 || st.SourcesReparsed != 4 {
			t.Errorf("parse accounting = %d parsed / %d re-parsed, want 1 / 4", st.SourcesParsed, st.SourcesReparsed)
		}
		if n := st.SourcesParsed + st.SourcesReparsed; n != st.Validations {
			t.Errorf("%d parses and re-parses for %d validations of one payload each", n, st.Validations)
		}
	})

	t.Run("typeA-xml", func(t *testing.T) {
		ctx := context.Background()
		a := azuregen.GenerateA(0.05, 2015)
		spec := infer.Infer(a.Store, infer.Defaults()).GenerateCPL()
		base := azuregen.RenderXML(a.Store)
		// mustSplice marks the churned payloads that have to reuse a spec.
		// A scattered 10 % churn touches every footprint of the small suite,
		// and so does the request after it, which reverts that scatter:
		// those two re-run every spec.
		payloads := [][]byte{base, base} // the repeat is a result-cache hit
		mustSplice := []bool{false, false}
		afterScatter := false
		for round := 0; round < 2; round++ {
			for _, clustered := range []bool{true, false} {
				for _, frac := range []float64{0.001, 0.01, 0.1} {
					payloads = append(payloads, churnXML(a.Store, frac, clustered, round))
					scatter := !clustered && frac == 0.1
					mustSplice = append(mustSplice, !scatter && !afterScatter)
					afterScatter = scatter
				}
			}
		}
		wantSpliced := int64(0)
		for _, m := range mustSplice {
			if m {
				wantSpliced++
			}
		}

		srv, warm := testClient(t, Config{})
		if _, err := warm.Register(ctx, "suite", spec); err != nil {
			t.Fatal(err)
		}
		for i, payload := range payloads {
			req := ValidateRequest{Payloads: []PayloadRef{{Name: "corpus.xml", Format: "xml", Data: string(payload)}}}
			warmResp, err := warm.Validate(ctx, "suite", req)
			if err != nil {
				t.Fatal(err)
			}
			if warmResp.Report.InstancesChecked == 0 {
				t.Fatalf("payload %d: the suite checked no instance; the comparison would be vacuous", i)
			}
			if mustSplice[i] && warmResp.Report.SpecsReused == 0 {
				t.Errorf("payload %d re-ran all %d specs; it must reuse some", i, warmResp.Report.SpecsRun)
			}
			got := wireModuloCaching(t, warmResp.Report)
			want, _ := fullRun(t, spec, req)
			if !bytes.Equal(got, want) {
				t.Errorf("payload %d diverged from a cold run:\n got: %.400s\nwant: %.400s", i, got, want)
			}
		}

		st := srv.Stats()
		if st.ResultCacheHits != 1 {
			t.Errorf("result cache hits = %d, want 1 (the repeated payload)", st.ResultCacheHits)
		}
		if st.IncrementalRuns != wantSpliced || st.SpecsReused == 0 {
			t.Errorf("churned payloads took %d incremental runs reusing %d specs; want %d runs that reuse specs",
				st.IncrementalRuns, st.SpecsReused, wantSpliced)
		}
		if st.SourcesReparsed == 0 || st.SourcesParsed+st.SourcesReparsed != st.Validations {
			t.Errorf("parse accounting = %d parsed / %d re-parsed over %d validations; want re-parses, summing to the validations",
				st.SourcesParsed, st.SourcesReparsed, st.Validations)
		}
	})
}

// fullRun is the caching tests' oracle: the request's payloads through a
// fresh runner, with no retained parse to re-parse against and no lineage
// to splice from, as cvcheck runs them once (TestServiceReportMatchesCLIPath).
// It returns the wire report modulo caching and the exit code. A second
// server would be no oracle, since it re-parses and splices too.
func fullRun(t *testing.T, spec string, req ValidateRequest) ([]byte, int) {
	t.Helper()
	job := runner.Job{SpecSrc: spec}
	for _, p := range req.Payloads {
		job.Payloads = append(job.Payloads, runner.Payload{Name: p.Name, Format: p.Format, Scope: p.Scope, Data: []byte(p.Data)})
	}
	res, err := runner.New(runner.Options{}).Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	return wireModuloCaching(t, res.Report.Wire()), res.Code()
}

// churnXML renders the corpus with ~frac of its instances re-valued,
// deterministic per (frac, clustered, round): a round-dependent window of
// them when clustered, else a seeded scatter over the whole corpus.
func churnXML(st *config.Store, frac float64, clustered bool, round int) []byte {
	ins := st.Instances()
	n := max(int(frac*float64(len(ins))), 1)
	churned := make([]bool, len(ins))
	if clustered {
		lo := (round * n) % len(ins)
		for d := 0; d < n; d++ {
			churned[(lo+d)%len(ins)] = true
		}
	} else {
		rng := rand.New(rand.NewSource(int64(frac*1e6) + int64(round)))
		for _, i := range rng.Perm(len(ins))[:n] {
			churned[i] = true
		}
	}
	variant := config.NewStore()
	for i, in := range ins {
		cp := *in
		if churned[i] {
			cp.Value += "~churned"
		}
		variant.Add(&cp)
	}
	return azuregen.RenderXML(variant)
}

// The result cache is LRU-bounded: overflowing it evicts the oldest
// entry, and a request for an evicted payload validates again.
func TestResultCacheEviction(t *testing.T) {
	ctx := context.Background()
	srv, c := testClient(t, Config{ResultCacheSize: 2})
	if _, err := c.Register(ctx, "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	payload := func(i int) ValidateRequest {
		return kvRequest(fmt.Sprintf("app.timeout = %d\napp.retries = 1\ndb.host = db1\n", 10+i))
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Validate(ctx, "checks", payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	rc := st.Tenants[0].Caches.ResultCache
	if rc.Entries != 2 || rc.Evictions != 1 {
		t.Errorf("after overflow: %+v, want 2 entries / 1 eviction", rc)
	}

	// Payload 0 was evicted; payload 2 is still resident.
	if _, err := c.Validate(ctx, "checks", payload(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Validate(ctx, "checks", payload(2)); err != nil {
		t.Fatal(err)
	}
	st = srv.Stats()
	if st.Validations != 4 {
		t.Errorf("validations = %d, want 4 (evicted payload re-runs, resident one hits)", st.Validations)
	}
	if st.ResultCacheHits != 1 {
		t.Errorf("result cache hits = %d, want 1", st.ResultCacheHits)
	}
}

// Re-registering a spec invalidates every cached response for it: the
// same payload re-validates under the new program, never serving the
// old program's verdict.
func TestReregistrationInvalidatesResultCache(t *testing.T) {
	ctx := context.Background()
	srv, c := testClient(t, Config{})
	const data = "app.timeout = 400\n"
	if _, err := c.Register(ctx, "checks", "$app.timeout -> int & [1, 60]"); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Validate(ctx, "checks", kvRequest(data))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Report.Passed {
		t.Fatal("400 should violate [1, 60]")
	}

	// Widen the range; the cached failure must not survive.
	if _, err := c.Register(ctx, "checks", "$app.timeout -> int & [1, 1000]"); err != nil {
		t.Fatal(err)
	}
	resp, err = c.Validate(ctx, "checks", kvRequest(data))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Report.Passed {
		t.Errorf("re-registered spec served stale verdict: %+v", resp.Report.Violations)
	}
	if st := srv.Stats(); st.Validations != 2 || st.ResultCacheHits != 0 {
		t.Errorf("stats = %d validations / %d hits, want 2 / 0", st.Validations, st.ResultCacheHits)
	}
}

// TestConcurrentCoalescedValidate hammers one tenant with identical
// concurrent requests. Single-flight plus the result cache must account
// for every request (hits + coalesced + validations = total), agree on
// the response bytes, and keep actual validations far below the request
// count. Run with -race; the stress suite picks this up by name.
func TestConcurrentCoalescedValidate(t *testing.T) {
	ctx := context.Background()
	srv, c := testClient(t, Config{MaxConcurrent: 4, MaxQueue: 256})
	if _, err := c.Register(ctx, "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	const data = "app.timeout = 30\napp.retries = 2\ndb.host = db1\n"

	const workers = 16
	const rounds = 8
	var wg sync.WaitGroup
	bodies := make(chan []byte, workers*rounds)
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				resp, err := c.Validate(ctx, "checks", kvRequest(data))
				if err != nil {
					errs <- err
					return
				}
				bodies <- wireModuloCaching(t, resp.Report)
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	close(bodies)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	var want []byte
	for b := range bodies {
		if want == nil {
			want = b
		} else if !bytes.Equal(b, want) {
			t.Fatalf("coalesced responses diverged:\n got: %s\nwant: %s", b, want)
		}
	}

	st := srv.Stats()
	total := st.Validations + st.ResultCacheHits + st.CoalescedRequests
	if total != workers*rounds {
		t.Errorf("accounting leak: %d validations + %d hits + %d coalesced = %d, want %d",
			st.Validations, st.ResultCacheHits, st.CoalescedRequests, total, workers*rounds)
	}
	if st.Validations < 1 || st.Validations > workers {
		t.Errorf("validations = %d, want 1..%d (identical requests must coalesce)", st.Validations, workers)
	}
}

// Every request is one lookup under one address, so it counts one hit
// or one miss: A, B, A sent in turn is two misses, two validations and
// one hit.
func TestResultCacheCountsEachLookupOnce(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	a := requestBody(t, kvRequest("app.timeout = 30\napp.retries = 2\ndb.host = db1\n"))
	b := requestBody(t, kvRequest("app.timeout = 31\napp.retries = 2\ndb.host = db1\n"))
	for _, body := range [][]byte{a, b, a} {
		if _, err := srv.ValidateBody(ctx, "acme", "checks", body); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	rc := st.Tenants[0].Caches.ResultCache
	if st.Validations != 2 || rc.Hits != 1 || rc.Misses != 2 {
		t.Errorf("A, B, A: %d validations, %d hits, %d misses; want 2, 1, 2", st.Validations, rc.Hits, rc.Misses)
	}
}

// TestConcurrentResultCacheAccounting sends a mix of repeated and fresh
// bodies from several clients at once. Each request is exactly one hit
// or one miss, and exactly one hit, one coalesced wait or one
// validation. Run with -race; the stress suite picks this up by name.
func TestConcurrentResultCacheAccounting(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{MaxConcurrent: 4, MaxQueue: 256})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	const rounds = 12
	var bodies [workers][rounds][]byte
	for w := range bodies {
		for r := range bodies[w] {
			timeout := r % 3 // repeated across clients
			if r%2 == 1 {
				timeout = 100 + w*rounds + r // fresh
			}
			bodies[w][r] = requestBody(t, kvRequest(fmt.Sprintf("app.timeout = %d\napp.retries = 2\ndb.host = db1\n", timeout)))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, body := range bodies[w] {
				if _, err := srv.ValidateBody(ctx, "acme", "checks", body); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := srv.Stats()
	rc := st.Tenants[0].Caches.ResultCache
	const requests = workers * rounds
	if rc.Hits+rc.Misses != requests {
		t.Errorf("%d hits + %d misses = %d, want %d", rc.Hits, rc.Misses, rc.Hits+rc.Misses, requests)
	}
	if n := rc.Hits + rc.Coalesced + st.Validations; n != requests {
		t.Errorf("%d hits + %d coalesced + %d validations = %d, want %d",
			rc.Hits, rc.Coalesced, st.Validations, n, requests)
	}
}

// Two bodies that differ in bytes but carry equal payloads have two
// content addresses: the second misses the result cache and validates,
// but the snapshot diff finds no change, so every spec is reused and the
// report is the first one's. Sent again, the second body hits.
func TestEqualPayloadsInDifferentBytes(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	first := []byte(`{"payloads":[{"name":"app.kv","format":"kv","data":"app.timeout = 400\napp.retries = 2\ndb.host = db1\n"}]}`)
	second := []byte(` {"payloads":[{"data":"app.timeout = 400\napp.retries = 2\ndb.host = db1\n","format":"kv","name":"app.kv"}]}`)
	want, err := srv.ValidateBody(ctx, "acme", "checks", first)
	if err != nil {
		t.Fatal(err)
	}

	before := srv.Stats()
	got, err := srv.ValidateBody(ctx, "acme", "checks", second)
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Validations != before.Validations+1 || after.ResultCacheHits != before.ResultCacheHits {
		t.Errorf("byte-different body: %d validation(s), %d cache hit(s); want 1, 0",
			after.Validations-before.Validations, after.ResultCacheHits-before.ResultCacheHits)
	}
	if r := got.Report; r.SpecsRun == 0 || r.SpecsReused != r.SpecsRun {
		t.Errorf("byte-different body: %d of %d specs reused, want all", r.SpecsReused, r.SpecsRun)
	}
	if g, w := wireModuloCaching(t, got.Report), wireModuloCaching(t, want.Report); !bytes.Equal(g, w) {
		t.Errorf("byte-different body diverged:\n got: %s\nwant: %s", g, w)
	}

	if _, err := srv.ValidateBody(ctx, "acme", "checks", second); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Validations != after.Validations || st.ResultCacheHits != after.ResultCacheHits+1 {
		t.Errorf("second body again: %d validation(s), %d cache hit(s); want 0, 1",
			st.Validations-after.Validations, st.ResultCacheHits-after.ResultCacheHits)
	}
}

// stallHook is called by the stall predicate; a test installs a sleep
// to push one request past the runner's LoadTimeout from inside a spec.
var stallHook atomic.Value // of func()

func init() {
	predicate.Register(&predicate.Func{
		Name: "stall",
		Check: func(simenv.Env, []value.V, value.V) (bool, error) {
			if h, ok := stallHook.Load().(func()); ok {
				h()
			}
			return true, nil
		},
	})
}

// A request whose deadline lands inside an incremental run that re-runs
// every spec comes back Interrupted — that branch used to ignore the
// deadline and return (and cache) a complete report — and an interrupted
// response is retained nowhere: not in the result cache, not as the
// spec's incremental state.
func TestInterruptedAllRerunResponseNotCached(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ctx := context.Background()
	srv := New(Config{Runner: runner.Options{Parallel: 1, LoadTimeout: timeout}})
	if _, err := srv.RegisterSpec("acme", "checks", "$app.a -> stall\n$app.b -> int & [0, 9]\n$app.c -> int & [0, 8]\n"); err != nil {
		t.Fatal(err)
	}
	body := func(v string) []byte {
		return requestBody(t, kvRequest("app.a = "+v+"\napp.b = "+v+"\napp.c = "+v+"\n"))
	}
	if resp, err := srv.ValidateBody(ctx, "acme", "checks", body("1")); err != nil || resp.Report.Interrupted {
		t.Fatalf("seed request: %+v, %v", resp, err)
	}

	stallHook.Store(func() { time.Sleep(2 * timeout) })
	resp, err := srv.ValidateBody(ctx, "acme", "checks", body("2")) // every key changed
	stallHook.Store(func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Report.Interrupted || resp.Report.SpecsRun != 1 {
		t.Fatalf("deadline inside an incremental request that re-runs every spec: interrupted=%t specs_run=%d, want true/1",
			resp.Report.Interrupted, resp.Report.SpecsRun)
	}

	// The identical body again, unhurried: a real validation, complete,
	// with nothing spliced from the interrupted attempt.
	before := srv.Stats()
	again, err := srv.ValidateBody(ctx, "acme", "checks", body("2"))
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Validations != before.Validations+1 || after.ResultCacheHits != before.ResultCacheHits {
		t.Errorf("repeat of an interrupted request: %d validation(s), %d cache hit(s); want 1, 0",
			after.Validations-before.Validations, after.ResultCacheHits-before.ResultCacheHits)
	}
	if again.Report.Interrupted || again.Report.SpecsRun != 3 || again.Report.SpecsReused != 0 {
		t.Errorf("repeat of an interrupted request: %+v", again.Report)
	}
}

// A request coalesced onto a leader that is cut short by its deadline
// inherits neither the leader's partial report nor its deadline: the
// follower leads a run of its own, and nothing it was handed reaches the
// cache, which would otherwise answer every later byte-identical body
// "interrupted, 1 spec run" without validating.
func TestCoalescedFollowerOfInterruptedLeader(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ctx := context.Background()
	srv := New(Config{Runner: runner.Options{Parallel: 1, LoadTimeout: timeout}})
	if _, err := srv.RegisterSpec("acme", "checks", "$app.a -> stall\n$app.b -> int & [0, 9]\n$app.c -> int & [0, 8]\n"); err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, kvRequest("app.a = 1\napp.b = 1\napp.c = 1\n"))

	// Every run stalls past its deadline; the first to do so says when.
	stalled := make(chan struct{})
	var once sync.Once
	stallHook.Store(func() {
		once.Do(func() { close(stalled) })
		time.Sleep(2 * timeout)
	})
	type result struct {
		resp *ValidateResponse
		err  error
	}
	leader := make(chan result, 1)
	go func() {
		resp, err := srv.ValidateBody(ctx, "acme", "checks", body)
		leader <- result{resp, err}
	}()
	<-stalled // the leader's flight is open for another 2×timeout
	followed, ferr := srv.ValidateBody(ctx, "acme", "checks", body)
	led := <-leader
	stallHook.Store(func() {})
	if led.err != nil || ferr != nil {
		t.Fatalf("leader: %v, follower: %v", led.err, ferr)
	}
	if !led.resp.Report.Interrupted || !followed.Report.Interrupted {
		t.Fatalf("stalled runs: leader interrupted=%t, follower interrupted=%t, want both (each past its own deadline)",
			led.resp.Report.Interrupted, followed.Report.Interrupted)
	}
	if st := srv.Stats(); st.CoalescedRequests != 1 || st.Validations != 2 {
		t.Errorf("%d coalesced, %d validations; want 1, 2 (the follower joined the flight, then led its own run)",
			st.CoalescedRequests, st.Validations)
	}

	// The identical body again, unhurried: a real validation, complete.
	before := srv.Stats()
	again, err := srv.ValidateBody(ctx, "acme", "checks", body)
	if err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if after.Validations != before.Validations+1 || after.ResultCacheHits != before.ResultCacheHits {
		t.Errorf("repeat of an interrupted, coalesced request: %d validation(s), %d cache hit(s); want 1, 0",
			after.Validations-before.Validations, after.ResultCacheHits-before.ResultCacheHits)
	}
	if again.Report.Interrupted || again.Report.SpecsRun != 3 {
		t.Errorf("repeat of an interrupted, coalesced request: %+v", again.Report)
	}
}

// A tenant keeps one parsed snapshot alive per registered spec — the one
// the next request's splice diffs against, in the spec's lineage state —
// however many distinct payloads it has answered and still holds
// responses for. A lineage state is the only holder of a run's snapshot
// (a run publishes its store nowhere), so every earlier request's state
// must be collected.
func TestTenantRetainsOneSnapshotPerSpec(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	entry, err := acmeTenant(t, srv).spec("checks")
	if err != nil {
		t.Fatal(err)
	}
	const requests = 12
	var finalized atomic.Int32
	for i := 0; i < requests; i++ {
		body := requestBody(t, kvRequest(fmt.Sprintf("app.timeout = %d\napp.retries = 2\ndb.host = db1\n", 10+i)))
		resp, err := srv.ValidateBody(ctx, "acme", "checks", body)
		if !cacheableResponse(resp, err) {
			t.Fatalf("request %d: %+v, %v", i, resp, err)
		}
		runtime.SetFinalizer(entry.state.Load(), func(*confvalley.RunState) { finalized.Add(1) })
	}
	if got := srv.Stats().Validations; got != requests {
		t.Fatalf("%d validations for %d distinct payloads", got, requests)
	}
	// Finalizers run on their own goroutine some time after the cycle
	// that found the object dead; one slot of slack for a state still
	// named by a dead stack slot.
	for i := 0; i < 20 && finalized.Load() < requests-2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got < requests-2 {
		t.Errorf("%d of %d request states were collected, want at least %d: something besides the spec's lineage retains parsed payloads",
			got, requests, requests-2)
	}
	runtime.KeepAlive(srv)
}
