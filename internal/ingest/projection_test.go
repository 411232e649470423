package ingest

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/driver"
)

func projectionOf(t *testing.T, pats ...string) *driver.Projection {
	t.Helper()
	ps := make([]config.Pattern, len(pats))
	for i, s := range pats {
		p, err := config.ParsePattern(s)
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = p
	}
	return driver.NewProjection(ps)
}

func projected(src Source, p *driver.Projection) Source {
	src.Projection = p
	return src
}

// keys lists a store's instance keys and values in load order.
func keys(st *config.Store) string {
	var b strings.Builder
	for _, in := range st.Snapshot().Instances() {
		fmt.Fprintf(&b, "%s=%s;", in.Key, in.Value)
	}
	return b.String()
}

// kept is the outcome's projected count, -1 when no projection applied.
func kept(o Outcome) int {
	if o.Projected == nil {
		return -1
	}
	return *o.Projected
}

const projDoc = "a.x = 1\nb.y = 2\na.z = 3\nc.y = 4\n"

// A load through a projection stores the kept classes only, and its
// outcome counts both the document's instances and the stored ones.
func TestProjectedLoadOutcome(t *testing.T) {
	st := config.NewStore()
	rep := newLineage(0).Load(context.Background(), st, []Source{projected(memSource("d.kv", "kv", []byte(projDoc)), projectionOf(t, "y"))})
	if o := rep.Outcomes[0]; o.Err != "" || o.Instances != 4 || kept(o) != 2 {
		t.Fatalf("outcome %+v; want 2 of 4 instances", o)
	}
	if got, want := keys(st), "b.y=2;c.y=4;"; got != want {
		t.Fatalf("store %q, want %q", got, want)
	}
	// A driver that does not project ignores the projection.
	st = config.NewStore()
	rep = newLineage(0).Load(context.Background(), st, []Source{projected(memSource("d.json", "json", goodJSON), projectionOf(t, "y"))})
	if o := rep.Outcomes[0]; o.Err != "" || o.Instances != 2 || o.Projected != nil || st.Snapshot().Len() != 2 {
		t.Fatalf("json outcome %+v, %d stored; want both instances, unprojected", o, st.Snapshot().Len())
	}
}

// A retained parse is served only to a load under the same projection:
// the same bytes under another projection parse afresh, and a failing
// load under a projection that never loaded finds no last good parse.
// Programs that take turns over one source, each with a lineage of its
// own, keep their own parses: each re-parses against its own, and a
// failing load is served its own stale.
func TestRetainedParsesArePerProjection(t *testing.T) {
	ctx := context.Background()
	pa, pb := projectionOf(t, "x"), projectionOf(t, "y")
	lineages := map[*driver.Projection]*lineage{pa: newLineage(0), pb: newLineage(0), nil: newLineage(0)}
	loadIn := func(l *lineage, p *driver.Projection, src Source) (Outcome, string) {
		st := config.NewStore()
		return l.Load(ctx, st, []Source{projected(src, p)}).Outcomes[0], keys(st)
	}
	load := func(p *driver.Projection, src Source) (Outcome, string) { return loadIn(lineages[p], p, src) }
	doc := func(v int) Source {
		return memSource("d.kv", "kv", []byte(fmt.Sprintf("a.x = %d\nb.y = 2\na.z = 3\nc.y = 4\n", v)))
	}
	for round := 0; round < 3; round++ {
		if _, got := load(pa, doc(round)); got != fmt.Sprintf("a.x=%d;", round) {
			t.Fatalf("round %d, projection a: store %q", round, got)
		}
		if _, got := load(pb, doc(round)); got != "b.y=2;c.y=4;" {
			t.Fatalf("round %d, projection b: store %q", round, got)
		}
		if _, got := load(nil, doc(round)); got != fmt.Sprintf("a.x=%d;b.y=2;a.z=3;c.y=4;", round) {
			t.Fatalf("round %d, unprojected: store %q", round, got)
		}
	}
	// a and the unprojected load re-parse rounds 1 and 2 against their
	// own parse of the round before; b dropped the line that changed, so
	// it parses each round in full.
	var sum parseCounts
	for _, l := range lineages {
		sum.Parsed += l.stats().Parsed
		sum.Reparsed += l.stats().Reparsed
	}
	if want := (parseCounts{Parsed: 5, Reparsed: 4}); sum != want {
		t.Fatalf("parse stats %+v, want %+v", sum, want)
	}

	// One lineage whose projection changes: the new projection parses the
	// same bytes afresh, and fails with nothing to serve.
	moved := newLineage(0)
	loadIn(moved, pa, doc(2))
	if o, got := loadIn(moved, pb, doc(2)); o.Reparsed || got != "b.y=2;c.y=4;" {
		t.Fatalf("the same bytes under another projection: %+v, store %q; want a full parse", o, got)
	}
	torn := failSource("d.kv", "kv", errors.New("torn"))
	if o, got := loadIn(moved, projectionOf(t, "z"), torn); !o.Quarantined || got != "" {
		t.Fatalf("failing load under a new projection: %+v, store %q; want quarantined", o, got)
	}
	for _, c := range []struct {
		p    *driver.Projection
		want string
		kept int
	}{{pa, "a.x=2;", 1}, {pb, "b.y=2;c.y=4;", 2}, {nil, "a.x=2;b.y=2;a.z=3;c.y=4;", -1}} {
		if o, got := load(c.p, torn); !o.Stale || o.Instances != 4 || kept(o) != c.kept || got != c.want {
			t.Fatalf("failing load under projection %q: %+v, store %q; want its own stale parse %q", c.p.ID(), o, got, c.want)
		}
	}
}

// A lineage keeps one parse of a source, under the projection its latest
// batch loaded it through: after nine projections in turn it holds one
// parse, a failing load under the first finds nothing to serve, and one
// under the latest is served its parse, which kept no instance.
func TestProjectedParsesAreBounded(t *testing.T) {
	ctx := context.Background()
	l := newLineage(0)
	views := make([]*driver.Projection, 9)
	for i := range views {
		views[i] = projectionOf(t, fmt.Sprintf("k%d", i))
	}
	torn := failSource("d.kv", "kv", errors.New("torn"))
	for _, p := range views {
		l.Load(ctx, config.NewStore(), []Source{projected(memSource("d.kv", "kv", []byte("k0 = 1\n")), p)})
	}
	if held := len(l.held()); held != 1 {
		t.Fatalf("the lineage holds %d parses of one source, want 1", held)
	}
	if o := l.Load(ctx, config.NewStore(), []Source{projected(torn, views[0])}).Outcomes[0]; !o.Quarantined {
		t.Fatalf("an earlier projection's parse was kept: %+v", o)
	}
	if o := l.Load(ctx, config.NewStore(), []Source{projected(torn, views[len(views)-1])}).Outcomes[0]; !o.Quarantined {
		t.Fatalf("the failing load under the first projection left the latest one's parse: %+v", o)
	}
	// The same again, without the detour: the latest projection's parse
	// is served stale.
	for _, p := range views {
		l.Load(ctx, config.NewStore(), []Source{projected(memSource("d.kv", "kv", []byte("k0 = 1\n")), p)})
	}
	if o := l.Load(ctx, config.NewStore(), []Source{projected(torn, views[len(views)-1])}).Outcomes[0]; !o.Stale || kept(o) != 0 {
		t.Fatalf("the latest projection's parse, which kept nothing, was not served stale: %+v", o)
	}
}

// A projected parse is a re-parse base like any other: a change inside
// a kept value re-parses, and a change on a line the projection dropped
// falls outside every value, declines and parses in full.
func TestReparseAgainstProjectedBase(t *testing.T) {
	ctx := context.Background()
	p := projectionOf(t, "y")
	l := newLineage(0)
	steps := []struct {
		doc, want string
		stats     parseCounts
	}{
		{projDoc, "b.y=2;c.y=4;", parseCounts{Parsed: 1}},
		{"a.x = 1\nb.y = 7\na.z = 3\nc.y = 4\n", "b.y=7;c.y=4;", parseCounts{Parsed: 1, Reparsed: 1}},
		{"a.x = 9\nb.y = 7\na.z = 3\nc.y = 4\n", "b.y=7;c.y=4;", parseCounts{Parsed: 2, Reparsed: 1}},
		{"a.x = 9\nb.y = 7\na.z = 3\nc.y = 5\n", "b.y=7;c.y=5;", parseCounts{Parsed: 2, Reparsed: 2}},
	}
	for i, s := range steps {
		st := config.NewStore()
		rep := l.Load(ctx, st, []Source{projected(memSource("d.kv", "kv", []byte(s.doc)), p)})
		if o := rep.Outcomes[0]; o.Err != "" || o.Instances != 4 || kept(o) != 2 {
			t.Fatalf("step %d: outcome %+v", i, o)
		}
		if got := keys(st); got != s.want {
			t.Fatalf("step %d: store %q, want %q", i, got, s.want)
		}
		if got := l.stats(); got != s.stats {
			t.Fatalf("step %d: parse stats %+v, want %+v", i, got, s.stats)
		}
	}
}

// One projection is shared, unlocked, by concurrent loads — scoped and
// not, through one lineage and through several: each parse keeps its own
// verdicts. Run under -race.
func TestConcurrentProjectedLoads(t *testing.T) {
	p, scoped := projectionOf(t, "y", "S.a.*"), projectionOf(t, "S.a.x", "S.c.y")
	shared := newLineage(0)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := newLineage(0)
			for round := 0; round < 20; round++ {
				doc := fmt.Sprintf("a.x = %d\nb.y = %d\na.z = 3\nS.a.k%d = 1\nc.y = 4\n", round, g, round%3)
				for _, l := range []*lineage{own, shared} {
					st := config.NewStore()
					src := projected(memSource(fmt.Sprintf("d%d.kv", g), "kv", []byte(doc)), p)
					if g%2 == 1 {
						src.Scope, src.Projection = "S", scoped
					}
					l.Load(context.Background(), st, []Source{src})
					want := fmt.Sprintf("b.y=%d;S.a.k%d=1;c.y=4;", g, round%3)
					if g%2 == 1 {
						want = fmt.Sprintf("S.a.x=%d;S.c.y=4;", round)
					}
					if got := keys(st); got != want {
						errs <- fmt.Errorf("goroutine %d round %d: store %q, want %q", g, round, got, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
