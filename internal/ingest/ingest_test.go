package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/config"
)

func memSource(name, format string, data []byte) Source {
	return Source{Name: name, Format: format, Fetch: func(context.Context) ([]byte, error) { return data, nil }}
}

func failSource(name, format string, err error) Source {
	return Source{Name: name, Format: format, Fetch: func(context.Context) ([]byte, error) { return nil, err }}
}

var goodJSON = []byte(`{"app": {"timeout": "30", "name": "svc"}}`)

func TestLoadCleanBatch(t *testing.T) {
	l := NewLoader(0)
	st := config.NewStore()
	rep := l.Load(context.Background(), st, []Source{
		memSource("a.json", "json", goodJSON),
		memSource("b.kv", "kv", []byte("port = 8080\n")),
	})
	if rep.Loaded() != 2 || rep.Stale() != 0 || rep.Quarantined() != 0 {
		t.Fatalf("clean batch accounting: loaded=%d stale=%d quarantined=%d", rep.Loaded(), rep.Stale(), rep.Quarantined())
	}
	if rep.Instances() != 3 {
		t.Fatalf("instances = %d, want 3", rep.Instances())
	}
	if rep.Degraded() || rep.AllFailed() {
		t.Fatalf("clean batch reported degraded=%v allFailed=%v", rep.Degraded(), rep.AllFailed())
	}
	pat, _ := config.ParsePattern("app.timeout")
	if got := len(st.Discover(pat)); got != 1 {
		t.Fatalf("store has %d app.timeout instances, want 1", got)
	}
}

// A malformed source with no retained parse quarantines; the rest of the
// batch still loads.
func TestMalformedSourceQuarantined(t *testing.T) {
	l := NewLoader(0)
	st := config.NewStore()
	rep := l.Load(context.Background(), st, []Source{
		memSource("bad.json", "json", []byte(`{"app":`)),
		memSource("good.json", "json", goodJSON),
	})
	if rep.Loaded() != 1 || rep.Quarantined() != 1 || rep.Stale() != 0 {
		t.Fatalf("accounting: loaded=%d stale=%d quarantined=%d", rep.Loaded(), rep.Stale(), rep.Quarantined())
	}
	o := rep.Outcomes[0]
	if !o.Quarantined || o.Err == "" || o.Instances != 0 {
		t.Fatalf("bad source outcome = %+v", o)
	}
	if rep.AllFailed() {
		t.Fatalf("AllFailed with one healthy source")
	}
	if !rep.Degraded() {
		t.Fatalf("Degraded not set with a quarantined source")
	}
}

func TestStaleServingAndRecovery(t *testing.T) {
	l := NewLoader(0) // serve stale forever
	good := memSource("s.json", "json", goodJSON)
	bad := memSource("s.json", "json", []byte("{torn"))

	load := func(src Source) Outcome {
		st := config.NewStore()
		rep := l.Load(context.Background(), st, []Source{src})
		return rep.Outcomes[0]
	}

	if o := load(good); o.Err != "" || o.Instances != 2 {
		t.Fatalf("good round: %+v", o)
	}
	for round := 1; round <= 3; round++ {
		o := load(bad)
		if !o.Stale || o.Quarantined || o.Instances != 2 || o.StaleRounds != round {
			t.Fatalf("bad round %d: %+v", round, o)
		}
	}
	// Recovery resets the staleness clock.
	if o := load(good); o.Err != "" || o.Stale {
		t.Fatalf("recovered round: %+v", o)
	}
	if o := load(bad); !o.Stale || o.StaleRounds != 1 {
		t.Fatalf("first bad round after recovery: %+v", o)
	}
}

func TestMaxStaleBoundsServing(t *testing.T) {
	l := NewLoader(2)
	good := memSource("s.json", "json", goodJSON)
	bad := memSource("s.json", "json", []byte("{torn"))
	load := func(src Source) Outcome {
		rep := l.Load(context.Background(), config.NewStore(), []Source{src})
		return rep.Outcomes[0]
	}
	load(good)
	if o := load(bad); !o.Stale || o.StaleRounds != 1 {
		t.Fatalf("round 1: %+v", o)
	}
	if o := load(bad); !o.Stale || o.StaleRounds != 2 {
		t.Fatalf("round 2: %+v", o)
	}
	if o := load(bad); !o.Quarantined || o.Stale {
		t.Fatalf("round 3 should exceed MaxStale=2: %+v", o)
	}
}

func TestNegativeMaxStaleNeverServes(t *testing.T) {
	l := NewLoader(-1)
	load := func(src Source) Outcome {
		rep := l.Load(context.Background(), config.NewStore(), []Source{src})
		return rep.Outcomes[0]
	}
	load(memSource("s.json", "json", goodJSON))
	if o := load(memSource("s.json", "json", []byte("{torn"))); !o.Quarantined {
		t.Fatalf("MaxStale<0 served stale: %+v", o)
	}
}

func TestAllFailed(t *testing.T) {
	l := NewLoader(0)
	rep := l.Load(context.Background(), config.NewStore(), []Source{
		failSource("a", "json", errors.New("down")),
		memSource("b.json", "json", []byte("{nope")),
	})
	if !rep.AllFailed() {
		t.Fatalf("AllFailed = false with every source quarantined")
	}
	empty := l.Load(context.Background(), config.NewStore(), nil)
	if empty.AllFailed() {
		t.Fatalf("AllFailed = true for an empty source list")
	}
}

func TestLoadInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := NewLoader(0)
	sources := []Source{
		Source{Name: "a.json", Format: "json", Fetch: func(context.Context) ([]byte, error) {
			cancel() // Ctrl-C lands while the first source is in flight
			return goodJSON, nil
		}},
		memSource("b.json", "json", goodJSON),
	}
	rep := l.Load(ctx, config.NewStore(), sources)
	if !rep.Interrupted {
		t.Fatalf("Interrupted not set")
	}
	if len(rep.Outcomes) != 1 {
		t.Fatalf("outcomes = %d, want 1 (the source already in flight)", len(rep.Outcomes))
	}
}

// A panicking fetch (or driver) is contained to a per-source failure.
func TestPanickingFetchContained(t *testing.T) {
	l := NewLoader(0)
	rep := l.Load(context.Background(), config.NewStore(), []Source{
		Source{Name: "p.json", Format: "json", Fetch: func(context.Context) ([]byte, error) { panic("hostile input") }},
		memSource("ok.json", "json", goodJSON),
	})
	o := rep.Outcomes[0]
	if !o.Quarantined || !strings.Contains(o.Err, "panic") {
		t.Fatalf("panicking source outcome = %+v", o)
	}
	if rep.Loaded() != 1 {
		t.Fatalf("healthy source did not load after sibling panic")
	}
}

func TestFileSourceAndFormatInference(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.json")
	if err := os.WriteFile(path, goodJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	l := NewLoader(0)
	rep := l.Load(context.Background(), config.NewStore(), []Source{{Name: path}})
	if o := rep.Outcomes[0]; o.Err != "" || o.Driver != "json" || o.Instances != 2 {
		t.Fatalf("file source outcome = %+v", o)
	}
	// Unreadable file: per-source failure, not an abort.
	rep = l.Load(context.Background(), config.NewStore(), []Source{{Name: filepath.Join(dir, "missing.ini")}})
	if o := rep.Outcomes[0]; !o.Quarantined || !strings.Contains(o.Err, "missing.ini") {
		t.Fatalf("missing file outcome = %+v", o)
	}
}

func TestForgetDropsLastGood(t *testing.T) {
	l := NewLoader(0)
	load := func(src Source) Outcome {
		rep := l.Load(context.Background(), config.NewStore(), []Source{src})
		return rep.Outcomes[0]
	}
	load(memSource("s.json", "json", goodJSON))
	l.Forget("s.json")
	if o := load(memSource("s.json", "json", []byte("{torn"))); !o.Quarantined {
		t.Fatalf("forgotten source served stale: %+v", o)
	}
}

// One file loaded under two scopes keeps two last-good parses: instances
// are stored scoped, so serving one scope's parse for the other would
// put keys under the wrong prefix. The session's single loader makes
// this reachable — a -data flag and a spec's load command may name the
// same file.
func TestStaleParseIsPerScope(t *testing.T) {
	l := NewLoader(0)
	scoped := func(scope string, data []byte) Source {
		src := memSource("s.json", "json", data)
		src.Scope = scope
		return src
	}
	l.Load(context.Background(), config.NewStore(), []Source{scoped("A", goodJSON), scoped("B", goodJSON)})
	st := config.NewStore()
	rep := l.Load(context.Background(), st, []Source{scoped("A", []byte("{torn"))})
	if o := rep.Outcomes[0]; !o.Stale || o.Instances != 2 {
		t.Fatalf("torn scope-A source: %+v", o)
	}
	for _, in := range st.Snapshot().Instances() {
		if !strings.HasPrefix(in.Key.String(), "A.") {
			t.Errorf("scope A was served %s", in.Key)
		}
	}
}

func TestRenderMentionsDegradedSources(t *testing.T) {
	l := NewLoader(0)
	load := func(srcs ...Source) *LoadReport {
		return l.Load(context.Background(), config.NewStore(), srcs)
	}
	load(memSource("stale.json", "json", goodJSON))
	rep := load(
		memSource("stale.json", "json", []byte("{torn")),
		memSource("quar.json", "json", []byte("{nope")),
	)
	var b strings.Builder
	rep.Render(&b)
	out := b.String()
	if !strings.Contains(out, "STALE stale.json") || !strings.Contains(out, "QUARANTINED quar.json") {
		t.Fatalf("render missing degraded sources:\n%s", out)
	}
}

func TestScopePrefixesKeys(t *testing.T) {
	l := NewLoader(0)
	st := config.NewStore()
	src := memSource("a.json", "json", goodJSON)
	src.Scope = "Prod"
	l.Load(context.Background(), st, []Source{src})
	pat, _ := config.ParsePattern("Prod.app.timeout")
	if got := len(st.Discover(pat)); got != 1 {
		t.Fatalf("scoped key not found (got %d)", got)
	}
}

func TestFormatFromPath(t *testing.T) {
	for _, tc := range []struct{ path, want string }{
		{"a.xml", "xml"}, {"a.ini", "ini"}, {"a.conf", "ini"}, {"a.cfg", "ini"},
		{"a.json", "json"}, {"a.yaml", "yaml"}, {"a.yml", "yaml"}, {"a.csv", "csv"},
		{"a.txt", "kv"}, {"noext", "kv"},
	} {
		if got := FormatFromPath(tc.path); got != tc.want {
			t.Errorf("FormatFromPath(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

func TestConcurrentLoadRounds(t *testing.T) {
	l := NewLoader(0)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 25; i++ {
				data := goodJSON
				if i%3 == 0 {
					data = []byte("{torn")
				}
				rep := l.Load(context.Background(), config.NewStore(), []Source{
					memSource(fmt.Sprintf("w%d.json", w), "json", data),
					memSource("shared.json", "json", data),
				})
				if len(rep.Outcomes) != 2 {
					err = fmt.Errorf("worker %d: %d outcomes", w, len(rep.Outcomes))
					break
				}
			}
			done <- err
		}(w)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// A loader keeps the parses of its latest batch and no others. A service
// tenant's requests name their own payloads, so without the bound a
// thousand names meant a thousand retained parses, each pinning its
// payload's bytes; a source named in every batch is still served stale.
func TestLoaderRetainsOneBatch(t *testing.T) {
	const loads = 1000
	l := NewLoader(0)
	var collected atomic.Int64
	previous := make(chan struct{})
	for i := 0; i < loads; i++ {
		// Bytes of their own, which the KV parse borrows its strings from.
		doc := append(make([]byte, 0, 256), fmt.Sprintf("request = %d\n", i)...)
		runtime.SetFinalizer(&doc[0], func(*byte) {
			collected.Add(1)
			if i == loads-2 {
				close(previous)
			}
		})
		batch := []Source{memSource(fmt.Sprintf("payload-%d.kv", i), "kv", doc), memSource("fixed.json", "json", goodJSON)}
		if rep := l.Load(context.Background(), config.NewStore(), batch); rep.Loaded() != len(batch) {
			t.Fatalf("load %d: %+v", i, rep.Outcomes)
		}
		l.mu.Lock()
		held := len(l.good)
		l.mu.Unlock()
		if held > len(batch) {
			t.Fatalf("after load %d the loader holds %d parses, want at most the batch's %d", i, held, len(batch))
		}
	}
	// Finalizers run on their own goroutine some time after the cycle that
	// found the object dead.
	done := false
	for i := 0; i < 20 && !done; i++ {
		runtime.GC()
		select {
		case <-previous:
			done = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !done {
		t.Fatalf("the previous batch's parse was not collected (%d of %d collected)", collected.Load(), loads)
	}
	// The finalizer goroutine may still be working through the earlier
	// parses queued with that one.
	for i := 0; i < 20 && collected.Load() < loads-2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got < loads-2 {
		t.Errorf("%d of %d earlier parses were collected, want at least %d", got, loads-1, loads-2)
	}
	rep := l.Load(context.Background(), config.NewStore(), []Source{memSource("fixed.json", "json", []byte("{torn"))})
	if o := rep.Outcomes[0]; !o.Stale || o.Instances != 2 {
		t.Fatalf("a source named in every batch lost its last good parse: %+v", o)
	}
}
