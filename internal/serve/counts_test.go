package serve

// The one counting path: every run returns what it counted
// (runner.Result.Counts), the tenant adds it up once per run, and
// /statsz reads the sums. A tenant counter is cumulative and equals the
// sum of its runs' counts, whichever spec ran last.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"confvalley"
	"confvalley/internal/runner"
)

// The tenant's discovery counters are the sums of its runs' discovery
// work: after a cold request, a one-value request that splices most
// verdicts, a request to a second spec and a result-cache hit, none of
// them is lower than before, and each equals what a replay of the same
// runs — the same programs, payloads and lineages, on a runner of its
// own — counted.
func TestDiscoveryCountersAreCumulative(t *testing.T) {
	ctx := context.Background()
	opts := runner.Options{Parallel: 1}
	srv := New(Config{Runner: opts})
	tn := acmeTenantFor(t, srv, map[string]string{"a": cacheSpec, "b": "$db.host -> nonempty\n$app.timeout -> int\n"})
	replay := runner.New(opts)
	lineage := map[string]*confvalley.RunState{}
	var want runner.Counts
	var before TenantStats
	for i, c := range []struct{ spec, data string }{
		{"a", "app.timeout = 30\napp.retries = 2\ndb.host = db1\n"},
		{"a", "app.timeout = 31\napp.retries = 2\ndb.host = db1\n"},
		{"b", "app.timeout = 30\napp.retries = 2\ndb.host = db1\n"},
		{"a", "app.timeout = 31\napp.retries = 2\ndb.host = db1\n"}, // a result-cache hit: no run
	} {
		resp, err := srv.ValidateBody(ctx, "acme", c.spec, requestBody(t, kvRequest(c.data)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && resp.Report.SpecsReused == 0 {
			t.Fatalf("the one-value request spliced nothing: %+v", resp.Report)
		}
		if i < 3 {
			entry, err := tn.spec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := replay.Run(ctx, runner.Job{Prog: entry.prog, Prev: lineage[c.spec],
				Payloads: []runner.Payload{{Name: "app.kv", Format: "kv", Data: []byte(c.data)}}})
			if err != nil {
				t.Fatal(err)
			}
			lineage[c.spec] = res.State
			want.Add(res.Counts)
		}
		ts := srv.Stats().Tenants[0]
		got := [3]int64{ts.DiscoveryQueries, ts.DiscoveryCacheHits, ts.DiscoveryScanned}
		was := [3]int64{before.DiscoveryQueries, before.DiscoveryCacheHits, before.DiscoveryScanned}
		sum := [3]int64{want.DiscoveryQueries, want.DiscoveryCacheHits, want.DiscoveryScanned}
		for k, name := range []string{"discovery_queries", "discovery_cache_hits", "discovery_scanned"} {
			if got[k] < was[k] {
				t.Errorf("request %d: %s fell from %d to %d", i, name, was[k], got[k])
			}
			if got[k] != sum[k] {
				t.Errorf("request %d: %s = %d, the runs counted %d", i, name, got[k], sum[k])
			}
		}
		before = ts
	}
	if want.DiscoveryQueries == 0 {
		t.Error("the runs discovered nothing; the test shows nothing")
	}
}

// Concurrent requests to two specs of one tenant — distinct bodies, some
// out of range, repeats the result cache answers or coalesces, torn
// payloads served stale — leave the tenant's counts equal to the sum of what the runs'
// responses report, each run counted once (a cache hit or a coalesced
// request hands back the response of the run that answered it, the
// same pointer), and validations + result-cache hits + coalesced
// requests equal to the requests admitted. Run with -race.
func TestConcurrentTenantCounts(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{MaxConcurrent: 2, MaxQueue: 64})
	acmeTenantFor(t, srv, map[string]string{"a": cacheSpec, "b": "$db.host -> nonempty\n$app.timeout -> int & [1, 60]\n"})
	const workers, requests = 3, 12
	var mu sync.Mutex
	runs := map[*ValidateResponse]bool{}
	admitted := 0
	var wg sync.WaitGroup
	for _, spec := range []string{"a", "b"} {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(spec string, w int) {
				defer wg.Done()
				for i := 0; i < requests; i++ {
					data := fmt.Sprintf("app.timeout = %d\napp.retries = 2\ndb.host = db%d\n", 20+(w+i)%5*20, i%2)
					if (w+i)%7 == 3 {
						data = "app.timeout\n" // torn: served stale, or quarantined before a clean load
					}
					resp, err := srv.ValidateBody(ctx, "acme", spec, requestBody(t, kvRequest(data)))
					if err != nil {
						t.Errorf("spec %s: %v", spec, err)
						return
					}
					mu.Lock()
					runs[resp] = true
					admitted++
					mu.Unlock()
				}
			}(spec, w)
		}
	}
	wg.Wait()

	var want runner.Counts
	for resp := range runs {
		want.Runs++
		want.SpecsReused += int64(resp.Report.SpecsReused)
		if resp.Report.SpecsReused > 0 {
			want.IncrementalRuns++
		}
		want.Violations += int64(len(resp.Report.Violations))
		for _, o := range resp.Load.Outcomes {
			switch {
			case o.Err == "" && o.Reparsed:
				want.Reparsed++
			case o.Err == "":
				want.Parsed++
			case o.Stale:
				want.Stale++
			case o.Quarantined:
				want.Quarantined++
			default:
				t.Errorf("an outcome of no kind: %+v", o)
			}
		}
	}
	st := srv.Stats()
	ts := st.Tenants[0]
	got := runner.Counts{
		Runs: st.Validations, Violations: st.Violations,
		SpecsReused: ts.Caches.SpecsReused, IncrementalRuns: ts.Caches.IncrementalRuns,
		Parsed: ts.Caches.SourcesParsed, Reparsed: ts.Caches.SourcesReparsed,
		Stale: ts.SourcesStale, Quarantined: ts.SourcesQuarantined,
	}
	if ts.SourcesLoaded != got.Parsed+got.Reparsed {
		t.Errorf("sources_loaded %d, parsed + re-parsed %d", ts.SourcesLoaded, got.Parsed+got.Reparsed)
	}
	if got != want {
		t.Errorf("the tenant counted %+v; its runs' responses report %+v", got, want)
	}
	if n := st.Validations + st.ResultCacheHits + st.CoalescedRequests; n != int64(admitted) {
		t.Errorf("validations %d + result-cache hits %d + coalesced %d = %d, want the %d requests admitted",
			st.Validations, st.ResultCacheHits, st.CoalescedRequests, n, admitted)
	}
	if want.Stale == 0 || want.Reparsed == 0 || want.Violations == 0 || st.ResultCacheHits+st.CoalescedRequests == 0 {
		t.Errorf("the mix reached too little: %+v, %d hits, %d coalesced", want, st.ResultCacheHits, st.CoalescedRequests)
	}
}
