package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/driver"
)

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A load of a Type A XML source that differs from the previous load in one
// value re-parses it: the unchanged instances are the previous parse's,
// and only the changed value is copied. Its store is the previous parse's
// class partition with the one changed class copied, not a rebuild. A full
// parse of that document allocates about 12 MB of key and instance slabs
// and a store build over its instances about 2 MB; the whole re-parsed
// load, store included, stays under 1 MB.
func TestReparseAllocations(t *testing.T) {
	doc := azuregen.RenderXML(azuregen.GenerateA(1.0, 2015).Store)
	marker := []byte(` Value="`)
	at := 0
	for {
		i := bytes.Index(doc[at:], marker)
		if i < 0 {
			t.Fatal("no Setting value starts with a letter or digit")
		}
		at += i + len(marker)
		if c := doc[at] | 0x20; 'a' <= c && c <= 'y' || '0' <= doc[at] && doc[at] <= '8' {
			break
		}
	}
	edited := bytes.Clone(doc)
	edited[at] ^= 1 // another letter or digit
	l := NewLoader(0)
	load := func(data []byte) *LoadReport {
		return l.Load(context.Background(), config.NewStore(), []Source{memSource("corpus.xml", "xml", data)})
	}
	if rep := load(doc); rep.Loaded() != 1 {
		t.Fatalf("first load: %+v", rep.Outcomes)
	}
	var rep *LoadReport
	alloc := allocatedBytes(func() { rep = load(edited) })
	if rep.Loaded() != 1 || rep.Instances() == 0 {
		t.Fatalf("second load: %+v", rep.Outcomes)
	}
	if got := l.ParseStats(); got != (ParseStats{Parsed: 1, Reparsed: 1}) {
		t.Fatalf("parse stats %+v, want one full parse and one re-parse", got)
	}
	ins := l.good[goodKey{name: "corpus.xml", format: "xml"}].ins
	build := allocatedBytes(func() { config.NewStore().AddAll(ins) })
	if alloc > 1<<20 {
		t.Errorf("a one-value load of %d instances allocated %.2f MB (a store build over them alone: %.2f MB), want under 1 MB",
			rep.Instances(), float64(alloc)/(1<<20), float64(build)/(1<<20))
	}
	t.Logf("one-value load: %.2f MB; a store build over its instances: %.2f MB", float64(alloc)/(1<<20), float64(build)/(1<<20))
}

// A re-parse keeps no reference into the bytes it was handed: over twenty
// value-only loads of one source the loader retains the first load's
// buffer, which the parse it re-parses against borrows from, and every
// later buffer is collected.
func TestLoaderReleasesReparsedBuffers(t *testing.T) {
	const loads = 20
	l := NewLoader(0)
	var collected atomic.Int64
	load := func(i int) {
		doc := append(make([]byte, 0, 64), fmt.Sprintf("app.timeout = %d\napp.name = svc\n", 10+i)...)
		if i > 0 {
			runtime.SetFinalizer(&doc[0], func(*byte) { collected.Add(1) })
		}
		if rep := l.Load(context.Background(), config.NewStore(), []Source{memSource("app.kv", "kv", doc)}); rep.Loaded() != 1 {
			t.Fatalf("load %d: %+v", i, rep.Outcomes)
		}
	}
	for i := 0; i < loads; i++ {
		load(i)
	}
	if got := l.ParseStats(); got != (ParseStats{Parsed: 1, Reparsed: loads - 1}) {
		t.Fatalf("parse stats %+v, want 1 full parse and %d re-parses", got, loads-1)
	}
	// Finalizers run on their own goroutine some time after the cycle that
	// found the object dead.
	for i := 0; i < 50 && collected.Load() < loads-1; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != loads-1 {
		t.Errorf("%d of the %d buffers after the first were collected; the loader retains a re-parsed load's bytes", got, loads-1)
	}
}

// Every clean load is a full parse or a re-parse, so the two counters
// sum to the sources loaded cleanly whatever mix of formats, failures
// and edits the rounds bring.
func TestParseStatsCountCleanLoads(t *testing.T) {
	rounds := []struct {
		batch []Source
		want  ParseStats
	}{
		{[]Source{
			memSource("a.kv", "kv", []byte("x = 1\n")),
			memSource("b.json", "json", goodJSON),
			memSource("c.xml", "xml", []byte(`<r><a v="1"/></r>`)),
		}, ParseStats{Parsed: 3}},
		{[]Source{ // two value edits; a torn source is no clean load
			memSource("a.kv", "kv", []byte("x = 2\n")),
			memSource("b.json", "json", []byte("{torn")),
			memSource("c.xml", "xml", []byte(`<r><a v="2"/></r>`)),
		}, ParseStats{Parsed: 3, Reparsed: 2}},
		{[]Source{ // a key edit and an added attribute parse in full
			memSource("a.kv", "kv", []byte("y = 2\n")),
			failSource("b.json", "json", errors.New("down")),
			memSource("c.xml", "xml", []byte(`<r><a v="2" w="3"/></r>`)),
		}, ParseStats{Parsed: 5, Reparsed: 2}},
		{[]Source{ // JSON is never re-parsed
			memSource("a.kv", "kv", []byte("y = 3\n")),
			memSource("b.json", "json", goodJSON),
			memSource("c.xml", "xml", []byte(`<r><a v="4" w="3"/></r>`)),
		}, ParseStats{Parsed: 6, Reparsed: 4}},
	}
	l := NewLoader(0)
	loaded := 0
	for i, round := range rounds {
		loaded += l.Load(context.Background(), config.NewStore(), round.batch).Loaded()
		got := l.ParseStats()
		if got != round.want {
			t.Errorf("round %d: parse stats %+v, want %+v", i, got, round.want)
		}
		if n := got.Parsed + got.Reparsed; n != int64(loaded) {
			t.Errorf("round %d: %d parses and re-parses for %d clean loads", i, n, loaded)
		}
	}
}

// A REST source's bytes are its URL, which stays the same while the
// document behind it changes: every load fetches the document again and
// parses it in full.
func TestRESTSourceRefetches(t *testing.T) {
	const url = "http://config.test/app"
	t.Cleanup(driver.ClearEndpoints)
	src := Source{Name: url, Format: "rest", Fetch: func(context.Context) ([]byte, error) { return []byte(url), nil }}
	l := NewLoader(0)
	pat, err := config.ParsePattern("app.timeout")
	if err != nil {
		t.Fatal(err)
	}
	for i, timeout := range []string{"30", "45", "45", "60"} {
		driver.RegisterEndpoint(url, []byte(`{"app": {"timeout": "`+timeout+`"}}`))
		st := config.NewStore()
		if rep := l.Load(context.Background(), st, []Source{src}); rep.Loaded() != 1 {
			t.Fatalf("load %d: %+v", i, rep.Outcomes)
		}
		if got := st.Discover(pat); len(got) != 1 || got[0].Value != timeout {
			t.Errorf("load %d: app.timeout = %v, want %s", i, got, timeout)
		}
	}
	if got := l.ParseStats(); got != (ParseStats{Parsed: 4}) {
		t.Errorf("parse stats %+v, want 4 full parses", got)
	}
}
