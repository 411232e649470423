package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"confvalley/internal/durable"
	"confvalley/internal/faultinject"
)

// The durable-service test suite: crash a server, recover a fresh one
// from the same state directory, and hold the recovered registries to
// byte-identity with the originals — the recovery invariant DESIGN.md
// §14 states and the crash-chaos CI job enforces.

const durableSpecA = "$app.timeout -> int & [1, 60]"
const durableSpecB = "$db.host -> nonempty"

// normalizeResp strips the timing a recovered server cannot reproduce.
func normalizeResp(t *testing.T, resp *ValidateResponse) []byte {
	t.Helper()
	cp := *resp
	if cp.Report != nil {
		w := *cp.Report
		w.DurationNS = 0
		cp.Report = &w
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func listJSON(t *testing.T, s *Server, tenant string) []byte {
	t.Helper()
	infos, err := s.ListSpecs(tenant)
	if err != nil {
		t.Fatalf("ListSpecs(%s): %v", tenant, err)
	}
	b, err := json.Marshal(infos)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func validateOnce(t *testing.T, s *Server, tenant, spec string) *ValidateResponse {
	t.Helper()
	resp, err := s.ValidateBody(context.Background(), tenant, spec, requestBody(t, kvRequest("app.timeout = 400\ndb.host = db1\n")))
	if err != nil {
		t.Fatalf("ValidateBody(%s/%s): %v", tenant, spec, err)
	}
	return resp
}

// TestRecoverRestoresRegistryByteIdentical is the in-process identity
// gate: a recovered server's ListSpecs and validation responses equal
// the pre-crash server's (modulo duration_ns).
func TestRecoverRestoresRegistryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{StateDir: dir})
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := a.RegisterSpec("acme", "timeout", durableSpecA); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterSpec("acme", "host", durableSpecB); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterSpec("beta", "timeout", durableSpecA); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterSpec("acme", "doomed", durableSpecB); err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteSpec("acme", "doomed"); err != nil {
		t.Fatal(err)
	}
	_ = ctx

	// Capture the identity baselines before any validation, so
	// HasReport (process-local state, deliberately not journaled) is
	// false on both sides of the crash.
	wantAcme := listJSON(t, a, "acme")
	wantBeta := listJSON(t, a, "beta")
	wantResp := normalizeResp(t, validateOnce(t, a, "acme", "timeout"))
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := New(Config{StateDir: dir})
	if err := b.checkReady(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("pre-recovery readiness = %v, want ErrNotReady", err)
	}
	if err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := listJSON(t, b, "acme"); string(got) != string(wantAcme) {
		t.Errorf("recovered acme registry diverged:\n got %s\nwant %s", got, wantAcme)
	}
	if got := listJSON(t, b, "beta"); string(got) != string(wantBeta) {
		t.Errorf("recovered beta registry diverged:\n got %s\nwant %s", got, wantBeta)
	}
	if got := normalizeResp(t, validateOnce(t, b, "acme", "timeout")); string(got) != string(wantResp) {
		t.Errorf("recovered validation response diverged:\n got %s\nwant %s", got, wantResp)
	}
	st := b.Stats().Durability
	if !st.Enabled || st.RecoveredSpecs != 3 || st.ReplayedRecords != 5 {
		t.Errorf("durability stats = %+v, want 3 recovered specs from 5 records", st)
	}
}

// TestRecoverTornJournalTail crashes the journal mid-write by tearing
// the file with faultinject.Torn: the recovered server must come up
// ready with a prefix of the registrations, never refusing to start.
func TestRecoverTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{StateDir: dir})
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	names := []string{"s0", "s1", "s2", "s3", "s4"}
	for _, n := range names {
		if _, err := a.RegisterSpec("acme", n, durableSpecA); err != nil {
			t.Fatal(err)
		}
	}
	// kill -9: abandon the server without Close, then tear the journal
	// in half the way an interrupted write leaves it.
	jpath := filepath.Join(dir, durable.JournalFile)
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(jpath, faultinject.Torn(data), 0o644); err != nil {
		t.Fatal(err)
	}

	b := New(Config{StateDir: dir})
	if err := b.Recover(); err != nil {
		t.Fatalf("recovery refused to start on torn tail: %v", err)
	}
	defer b.Close()
	infos, err := b.ListSpecs("acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) == 0 || len(infos) >= len(names) {
		t.Fatalf("recovered %d specs from a half-torn journal of %d", len(infos), len(names))
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Errorf("recovered specs are not a prefix: got %s at %d", info.Name, i)
		}
	}
	if st := b.Stats().Durability; st.TornTruncations != 1 {
		t.Errorf("durability stats = %+v, want one torn truncation", st)
	}
}

// TestCrashMidRegisterCommit kills the server inside a journal commit
// (torn frame + panic before fsync, via the durable crash hooks) and
// checks the unacknowledged registration does not survive recovery
// while every acknowledged one does.
func TestCrashMidRegisterCommit(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{StateDir: dir})
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RegisterSpec("acme", "kept", durableSpecA); err != nil {
		t.Fatal(err)
	}
	calls := 0
	a.log.Hooks.MangleFrame = func(frame []byte) []byte {
		calls++
		if calls == 1 {
			return faultinject.Torn(frame)
		}
		return frame
	}
	a.log.Hooks.AfterWrite = faultinject.PanicOnNth(1, "crash mid-commit")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crash hook did not fire")
			}
		}()
		a.RegisterSpec("acme", "lost", durableSpecB)
	}()
	// The crashed process never acked "lost"; abandon it un-Closed.

	b := New(Config{StateDir: dir})
	if err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	infos, err := b.ListSpecs("acme")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Name != "kept" {
		t.Errorf("recovered registry = %+v, want only the acknowledged spec", infos)
	}
}

// TestRecoverCompactedState: recovery through a snapshot + journal mix
// equals recovery from the journal alone.
func TestRecoverCompactedState(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{StateDir: dir, CompactEvery: 4})
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := a.RegisterSpec("acme", fmt.Sprintf("s%d", i), durableSpecA); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.DeleteSpec("acme", "s0"); err != nil {
		t.Fatal(err)
	}
	want := listJSON(t, a, "acme")
	if st := a.Stats().Durability; st.Compactions == 0 {
		t.Fatalf("no compaction after 7 appends with CompactEvery=4: %+v", st)
	}
	a.Close()

	b := New(Config{StateDir: dir, CompactEvery: 4})
	if err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got := listJSON(t, b, "acme"); string(got) != string(want) {
		t.Errorf("post-compaction recovery diverged:\n got %s\nwant %s", got, want)
	}
}

// TestReadyzLifecycle drives the readiness endpoint through the
// recovering → ready → draining arc a load balancer watches.
func TestReadyzLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{StateDir: dir})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client()}
	ctx := context.Background()

	get := func() (int, string, string) {
		resp, err := http.Get(hs.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info ReadyInfo
		json.NewDecoder(resp.Body).Decode(&info)
		return resp.StatusCode, info.State, resp.Header.Get("Retry-After")
	}

	if code, state, ra := get(); code != http.StatusServiceUnavailable || state != "recovering" || ra == "" {
		t.Errorf("pre-recovery /readyz = %d %q retry-after %q, want 503 recovering with Retry-After", code, state, ra)
	}
	// State-changing requests are refused while recovering, with the
	// typed error the client reconstructs from the 503.
	if _, err := c.Register(ctx, "early", durableSpecA); !errors.Is(err, ErrNotReady) {
		t.Errorf("register while recovering = %v, want ErrNotReady", err)
	}

	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if code, state, _ := get(); code != http.StatusOK || state != "ready" {
		t.Errorf("post-recovery /readyz = %d %q, want 200 ready", code, state)
	}
	if info, err := c.Ready(ctx); err != nil || !info.Ready {
		t.Errorf("client Ready = %+v, %v", info, err)
	}
	if _, err := c.Register(ctx, "ok", durableSpecA); err != nil {
		t.Fatal(err)
	}

	srv.StartDrain()
	if code, state, ra := get(); code != http.StatusServiceUnavailable || state != "draining" || ra == "" {
		t.Errorf("draining /readyz = %d %q retry-after %q, want 503 draining with Retry-After", code, state, ra)
	}
	if _, err := c.Register(ctx, "late", durableSpecA); !errors.Is(err, ErrNotReady) {
		t.Errorf("register while draining = %v, want ErrNotReady", err)
	}
	if info, err := c.Ready(ctx); err == nil || info.Ready || info.State != "draining" {
		t.Errorf("client Ready during drain = %+v, %v", info, err)
	}
}

// TestConcurrentRegisterDrain races registrations and deletions
// against a drain under -race (part of the stress suite): every
// operation either journals fully and is recovered, or is rejected
// with ErrNotReady — never half-applied. The recovered registry must
// contain exactly the acknowledged-surviving set.
func TestConcurrentRegisterDrain(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{StateDir: dir, Quotas: Quotas{MaxSpecs: 4096}})
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const perWorker = 40
	type op struct {
		spec    string
		deleted bool
	}
	acked := make([][]op, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				name := fmt.Sprintf("w%d-s%d", w, i)
				_, err := srv.RegisterSpec("acme", name, durableSpecA)
				if errors.Is(err, ErrNotReady) {
					return // drain won; nothing acked for this op
				}
				if err != nil {
					t.Errorf("register %s: %v", name, err)
					return
				}
				rec := op{spec: name}
				// Delete every third registration to exercise both ops
				// against the drain.
				if i%3 == 2 {
					derr := srv.DeleteSpec("acme", name)
					if errors.Is(derr, ErrNotReady) {
						acked[w] = append(acked[w], rec)
						return
					}
					if derr != nil {
						t.Errorf("delete %s: %v", name, derr)
						return
					}
					rec.deleted = true
				}
				acked[w] = append(acked[w], rec)
			}
		}()
	}
	close(start)
	// Drain while the workers are mid-flight.
	srv.StartDrain()
	wg.Wait()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{}
	for _, ops := range acked {
		for _, o := range ops {
			if !o.deleted {
				want[o.spec] = true
			}
		}
	}

	rec := New(Config{StateDir: dir, Quotas: Quotas{MaxSpecs: 4096}})
	if err := rec.Recover(); err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got := map[string]bool{}
	if len(want) > 0 {
		infos, err := rec.ListSpecs("acme")
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range infos {
			got[info.Name] = true
		}
	}
	for spec := range want {
		if !got[spec] {
			t.Errorf("acknowledged registration %s lost across recovery", spec)
		}
	}
	for spec := range got {
		if !want[spec] {
			t.Errorf("recovered spec %s was never acknowledged (or was deleted)", spec)
		}
	}
}
