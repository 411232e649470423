package serve

// What a registered spec's lineage keeps of the payloads it loaded: the
// parses its next request re-parses against or serves stale, kept in
// the spec's RunState and in nothing the tenant shares, so they die with
// the registration.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/runner"
)

// ownPayloadSpecs are two specs of one tenant, each validating a payload
// name of its own.
var ownPayloadSpecs = map[string]string{"app": "$app.timeout -> int & [1, 60]\n", "db": "$db.port -> int & [1, 9999]\n"}

// ownPayload is spec name's request in round: its own payload, a value
// that changes every round, so each body is new and each load a
// value-only edit of the one before.
func ownPayload(t testing.TB, name string, round int) []byte {
	data := fmt.Sprintf("app.timeout = %d\n", 10+round)
	if name == "db" {
		data = fmt.Sprintf("db.port = %d\n", 5000+round)
	}
	return requestBody(t, ValidateRequest{Payloads: []PayloadRef{{Name: name + ".kv", Format: "kv", Data: data}}})
}

func ownPayloadServer(t *testing.T) *Server {
	t.Helper()
	srv := New(Config{})
	for name, src := range ownPayloadSpecs {
		if _, err := srv.RegisterSpec("acme", name, src); err != nil {
			t.Fatal(err)
		}
	}
	return srv
}

// Two specs of one tenant that take turns, each with its own payload
// name, each re-parse against their own last parse: after each spec's
// first request, every load is a re-parse. A load that drops every parse
// its batch does not name makes all twelve full parses.
func TestSpecsWithOwnPayloadsReparse(t *testing.T) {
	ctx := context.Background()
	srv := ownPayloadServer(t)
	const rounds = 6
	for round := 0; round < rounds; round++ {
		for _, name := range []string{"app", "db"} {
			resp, err := srv.ValidateBody(ctx, "acme", name, ownPayload(t, name, round))
			if err != nil {
				t.Fatal(err)
			}
			if o := resp.Load.Outcomes[0]; o.Err != "" || o.Instances != 1 {
				t.Fatalf("round %d, spec %s: outcome %+v", round, name, o)
			}
		}
	}
	if st := srv.Stats(); st.SourcesParsed != 2 || st.SourcesReparsed != 2*rounds-2 {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 2 and %d", st.SourcesParsed, st.SourcesReparsed, 2*rounds-2)
	}
}

// The same, with the two specs' requests concurrent: each spec's requests
// follow one another, the two specs' interleave however they are
// scheduled, and the parse counts are the same. Run under -race.
func TestConcurrentSpecsWithOwnPayloadsReparse(t *testing.T) {
	ctx := context.Background()
	srv := ownPayloadServer(t)
	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, len(ownPayloadSpecs))
	for name := range ownPayloadSpecs {
		bodies := make([][]byte, rounds)
		for round := range bodies {
			bodies[round] = ownPayload(t, name, round)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for round, body := range bodies {
				resp, err := srv.ValidateBody(ctx, "acme", name, body)
				if err != nil {
					errs <- err
					return
				}
				if o := resp.Load.Outcomes[0]; o.Err != "" || o.Instances != 1 {
					errs <- fmt.Errorf("round %d, spec %s: outcome %+v", round, name, o)
					return
				}
			}
		}(name)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.SourcesParsed != 2 || st.SourcesReparsed != 2*rounds-2 {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 2 and %d", st.SourcesParsed, st.SourcesReparsed, 2*rounds-2)
	}
}

// A payload served stale counts on /statsz as stale, like one a spec's
// own load command fails on, and one with nothing to serve as
// quarantined.
func TestStatsCountPayloadsServedStale(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "timeout", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterSpec("acme", "fresh", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ spec, data string }{
		{"timeout", "app.timeout = 30\n"},
		{"timeout", "app.timeout\n"}, // torn: served the parse before
		{"fresh", "app.timeout\n"},   // torn, and nothing to serve
	} {
		if _, err := srv.ValidateBody(ctx, "acme", c.spec, requestBody(t, kvRequest(c.data))); err != nil {
			t.Fatal(err)
		}
	}
	ts := srv.Stats().Tenants[0]
	if ts.SourcesLoaded != 1 || ts.SourcesStale != 1 || ts.SourcesQuarantined != 1 {
		t.Errorf("sources loaded %d, stale %d, quarantined %d; want 1 each", ts.SourcesLoaded, ts.SourcesStale, ts.SourcesQuarantined)
	}
}

// A deleted or re-registered spec's parsed payload goes with it: with no
// further request, nothing of the tenant's keeps it. The specs share a
// payload name and each loads it through its own projection. They run
// in two orders: the spec kept validated last, and the deleted one last,
// whose run's store nothing may keep once the spec is gone. The test
// hands each run bytes of its own, which the full parse keeps, so a
// finalizer can watch them.
func TestRetiredSpecsPayloadIsCollected(t *testing.T) {
	for _, order := range [][]string{{"deleted", "replaced", "kept"}, {"replaced", "kept", "deleted"}} {
		retiredPayloadsCollected(t, order)
	}
}

// retiredPayloadsCollected validates three specs in order, deletes one
// and re-registers another, and checks that both retired specs' payloads
// are collected.
func retiredPayloadsCollected(t *testing.T, order []string) {
	t.Helper()
	ctx := context.Background()
	srv := New(Config{})
	specs := map[string]string{
		"deleted":  "$db.port -> int\n",
		"replaced": "$db.host -> nonempty\n",
		"kept":     "$app.timeout -> int\n",
	}
	tn := acmeTenantFor(t, srv, specs)
	var collected atomic.Int32
	for _, name := range order {
		entry, err := tn.spec(name)
		if err != nil {
			t.Fatal(err)
		}
		doc := append(make([]byte, 0, 256), "app.timeout = 30\ndb.port = 5432\ndb.host = db1\n"...)
		if name != "kept" {
			runtime.SetFinalizer(&doc[0], func(*byte) { collected.Add(1) })
		}
		job := runner.Job{Prog: entry.prog, Payloads: []runner.Payload{{Name: "app.kv", Format: "kv", Data: doc}}}
		if _, kept, _, err := srv.validate(ctx, tn, entry, job); err != nil || !kept {
			t.Fatalf("spec %s: kept=%t err=%v; want a full parse, which keeps the bytes", name, kept, err)
		}
	}
	if err := srv.DeleteSpec("acme", "deleted"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterSpec("acme", "replaced", "$db.host -> string\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != 2 {
		t.Errorf("order %v: %d of 2 retired specs' payloads were collected", order, got)
	}
	runtime.KeepAlive(srv)
}

// acmeTenantFor registers specs under tenant acme and returns it.
func acmeTenantFor(t *testing.T, srv *Server, specs map[string]string) *tenant {
	t.Helper()
	for name, src := range specs {
		if _, err := srv.RegisterSpec("acme", name, src); err != nil {
			t.Fatal(err)
		}
	}
	return acmeTenant(t, srv)
}
