package ingest

// The tenant-wide loader the lineage's Load replaced, kept here, outside
// the binary, as the reference TestLoadMatchesLoaderOracle holds Load to.
// It is the code as it was, renamed: one mutable table of last good
// parses shared by every caller, which each batch trims to the sources it
// names (retainOnly), keeping up to oracleMaxViews projections of each.
// Driven as one lineage — each batch's projection new or the one before,
// never one it left — it must give every outcome and every store that
// Load gives.

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/driver"
)

// source is the key with the projection left out: the source a parse
// is of, whichever program it was projected for.
func (k goodKey) source() goodKey {
	k.proj = ""
	return k
}

// oracleMaxViews bounds the parses one source keeps under distinct
// projections. Each holds its own copy of the source's bytes, so the
// bound is what stops a service whose programs keep changing from
// accumulating one per retired program.
const oracleMaxViews = 8

// oracleGood is the retained parse of one source.
type oracleGood struct {
	parse
	staleRounds int
	used        uint64 // oracleLoader.clock when it was last stored or served
	// base is the source's latest full parse when its driver re-parses
	// (driver.Reparser), nil otherwise: ins is base's instances or a delta
	// re-parse of base, which shares them. Only a full parse replaces it.
	base *document
}

// oracleParseStats counts a loader's clean loads by how their instances
// were obtained; Parsed + Reparsed is every source it has loaded cleanly.
type oracleParseStats struct {
	// Parsed counts full parses.
	Parsed int64
	// Reparsed counts delta re-parses against a retained full parse
	// (driver.Reparser): bytes that differed from it inside values only.
	Reparsed int64
}

// oracleLoader loads batches of sources with graceful degradation,
// retaining each source's last good parse across rounds. The zero value
// is ready to use. An oracleLoader is safe for concurrent use;
// watch-style callers keep one alive for the life of the session so a
// source torn mid-write in round N serves round N-1's parse.
//
// An oracleLoader retains the parses of the sources of the batch it
// loaded last and of no other: each Load drops every parse its batch does not name.
// A watch session loads one fixed source set every round and keeps all of
// it; a service, whose requests name their payloads, keeps one request's
// per concurrent load however many names it has been sent. A source
// loaded through projections keeps one parse per projection, so programs
// that take turns over it each keep theirs, up to oracleMaxViews of
// them: the least recently loaded goes first.
//
// A source whose driver re-parses (xml, kv) is first re-parsed against
// its latest full parse, when the loader holds one: if the new bytes
// differ from the parsed ones inside values only, the unchanged instances
// are reused and the changed values copied, so the new bytes are not
// retained (Outcome.Reparsed), and the store is built from the full
// parse's class partition with only the changed classes copied. Anything
// else is parsed in full, and that parse — bytes, instances, partition —
// is what later loads are measured against. The bytes a source hands
// over are lent, then: a full parse keeps them, a re-parse does not.
type oracleLoader struct {
	// MaxStale bounds how many consecutive rounds a failing source is
	// served from its last good parse before it degrades to quarantined.
	// 0 means serve stale data indefinitely; negative disables stale
	// serving entirely (every failure quarantines).
	MaxStale int

	mu    sync.Mutex
	good  map[goodKey]*oracleGood
	clock uint64 // counts parses stored or served, ordering oracleGood.used

	parsed, reparsed atomic.Int64 // oracleParseStats
}

// newOracleLoader returns an oracleLoader with the given staleness bound.
func newOracleLoader(maxStale int) *oracleLoader { return &oracleLoader{MaxStale: maxStale} }

// stats reports how the loader's clean loads so far were parsed.
func (l *oracleLoader) stats() oracleParseStats {
	return oracleParseStats{Parsed: l.parsed.Load(), Reparsed: l.reparsed.Load()}
}

// Load fetches, parses and stores every source, never aborting the batch
// on a per-source failure: failed sources are served stale (within
// MaxStale) or quarantined, and the returned LoadReport accounts for
// every source examined. Cancellation between sources stops the batch
// with Interrupted set. Afterwards the loader retains the parses of this
// batch's sources only, examined or not.
func (l *oracleLoader) Load(ctx context.Context, st *config.Store, sources []Source) *LoadReport {
	rep := &LoadReport{}
	for _, src := range sources {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		rep.Outcomes = append(rep.Outcomes, l.loadOne(ctx, st, src))
	}
	l.retainOnly(sources)
	return rep
}

// retainOnly drops every retained parse of a source the batch does not
// name, whatever its projection, and a named source's least recently
// used parses beyond oracleMaxViews.
func (l *oracleLoader) retainOnly(sources []Source) {
	named := make(map[goodKey]bool, len(sources))
	for _, src := range sources {
		named[oracleKeyOf(src).source()] = true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var views map[goodKey][]goodKey
	for k := range l.good {
		switch {
		case !named[k.source()]:
			delete(l.good, k)
		case k.proj != "":
			if views == nil {
				views = make(map[goodKey][]goodKey)
			}
			views[k.source()] = append(views[k.source()], k)
		}
	}
	for _, ks := range views {
		if len(ks) <= oracleMaxViews {
			continue
		}
		slices.SortFunc(ks, func(a, b goodKey) int { return cmp.Compare(l.good[b].used, l.good[a].used) })
		for _, k := range ks[oracleMaxViews:] {
			delete(l.good, k)
		}
	}
}

// oracleKeyOf is the key a source's parse is retained under.
func oracleKeyOf(src Source) goodKey {
	format := src.Format
	if format == "" {
		format = FormatFromPath(src.Name)
	}
	k := goodKey{name: src.Name, format: format, scope: src.Scope}
	if driver.Projects(format) {
		k.proj = src.Projection.ID()
	}
	return k
}

// loadOne handles one source: fetch, parse (panic-contained), store, and
// last-good bookkeeping.
func (l *oracleLoader) loadOne(ctx context.Context, st *config.Store, src Source) Outcome {
	key := oracleKeyOf(src)
	out := Outcome{Source: src.Name, Driver: key.format}
	var base *document
	l.mu.Lock()
	if g := l.good[key]; g != nil {
		base = g.base
	}
	l.mu.Unlock()
	p, doc, err := fetchAndParse(ctx, src, key.format, base)
	if err == nil {
		if base != nil && doc == base {
			l.reparsed.Add(1)
			out.Reparsed = true
		} else {
			l.parsed.Add(1)
		}
		st.AddPartition(p.part)
		p.count(&out)
		l.mu.Lock()
		if l.good == nil {
			l.good = make(map[goodKey]*oracleGood)
		}
		l.clock++
		l.good[key] = &oracleGood{parse: p, base: doc, used: l.clock}
		l.mu.Unlock()
		return out
	}
	out.Err = err.Error()
	// Degrade: serve the last good parse when one exists and is not too
	// stale. Instances are immutable once parsed, so re-adding the same
	// pointers to a fresh store is sound.
	l.mu.Lock()
	g := l.good[key]
	if g != nil {
		g.staleRounds++
		if l.MaxStale < 0 || (l.MaxStale > 0 && g.staleRounds > l.MaxStale) {
			g = nil
		}
	}
	var stale parse
	var rounds int
	if g != nil {
		l.clock++
		g.used = l.clock
		stale, rounds = g.parse, g.staleRounds
	}
	l.mu.Unlock()
	// An empty document's parse is not served: its instances are nil.
	// A projection that kept none of a document's is, as the full parse
	// would be.
	if stale.parsed > 0 {
		st.AddPartition(stale.part)
		stale.count(&out)
		out.Stale = true
		out.StaleRounds = rounds
		return out
	}
	out.Quarantined = true
	return out
}

// oracleSlot is one source of a generated lineage and the document it
// holds now: one value per entry, entry i of class c(i mod 3).
type oracleSlot struct {
	src  Source
	vals []string
}

var oracleValues = []string{"1", "22", "333", "abc", "q7", "zz9z"}

// render writes the slot's document in its format.
func (s *oracleSlot) render() []byte {
	var b bytes.Buffer
	if s.src.Format == "xml" {
		b.WriteString("<r>")
		for i, v := range s.vals {
			fmt.Fprintf(&b, "<s%d c%d=\"%s\"/>", i, i%3, v)
		}
		b.WriteString("</r>\n")
		return b.Bytes()
	}
	for i, v := range s.vals {
		fmt.Fprintf(&b, "s%d.c%d = %s\n", i, i%3, v)
	}
	return b.Bytes()
}

// oracleRound is one generated batch: each source with the bytes it
// fetches, or the error it fails with, under the round's projection, and
// the source whose fetch cancels the load (-1 for none).
type oracleRound struct {
	slots  []int // indexes into the lineage's slots, in batch order
	data   [][]byte
	fail   []bool
	proj   *driver.Projection
	cancel int
}

// oracleProjections are the projections a lineage moves through in
// order, never back: a program's, then an edited program's.
func oracleProjections(t *testing.T) []*driver.Projection {
	return []*driver.Projection{nil, projectionOf(t, "c0"), projectionOf(t, "c1", "c2"), projectionOf(t, "c2")}
}

// generateLineage draws rounds of edits to three sources — two KV, one
// XML, one KV scoped — of kinds value edit, structural edit, torn bytes,
// a missing source, a source left out of the batch, a projection change
// and a cancelled load.
func generateLineage(t *testing.T, seed int64, rounds int) []oracleRound {
	rng := rand.New(rand.NewSource(seed))
	slots := []*oracleSlot{
		{src: Source{Name: "a.kv", Format: "kv"}},
		{src: Source{Name: "b.xml", Format: "xml"}},
		{src: Source{Name: "c.kv", Format: "kv", Scope: "S"}},
	}
	for _, s := range slots {
		for i := 0; i < 2+rng.Intn(4); i++ {
			s.vals = append(s.vals, oracleValues[rng.Intn(len(oracleValues))])
		}
	}
	projs := oracleProjections(t)
	proj := 0
	var out []oracleRound
	for r := 0; r < rounds; r++ {
		if proj < len(projs)-1 && rng.Intn(8) == 0 {
			proj++
		}
		round := oracleRound{proj: projs[proj], cancel: -1}
		for i, s := range slots {
			if rng.Intn(7) == 0 {
				continue // left out of this batch
			}
			var data []byte
			fail := false
			switch k := rng.Intn(20); {
			case k < 8: // value edit
				s.vals[rng.Intn(len(s.vals))] = oracleValues[rng.Intn(len(oracleValues))]
				data = s.render()
			case k < 11: // structural edit: an entry added or removed
				if len(s.vals) > 1 && rng.Intn(2) == 0 {
					s.vals = s.vals[:len(s.vals)-1]
				} else {
					s.vals = append(s.vals, oracleValues[rng.Intn(len(oracleValues))])
				}
				data = s.render()
			case k < 14: // torn mid-write
				data = s.render()
				if s.src.Format == "xml" {
					data = data[:len(data)/2]
				} else {
					data = append(data, "torn\n"...)
				}
			case k < 16: // missing
				fail = true
			default: // unchanged
				data = s.render()
			}
			round.slots = append(round.slots, i)
			round.data = append(round.data, data)
			round.fail = append(round.fail, fail)
		}
		if len(round.slots) > 0 && rng.Intn(15) == 0 {
			round.cancel = rng.Intn(len(round.slots))
		}
		out = append(out, round)
	}
	return out
}

// batch builds one side's sources for a round: fresh fetches over its own
// copy of the bytes, under a context the round's cancelling source ends.
// The caller cancels it once the load returns.
func (r oracleRound) batch(base []Source) (context.Context, context.CancelFunc, []Source) {
	ctx, cancel := context.WithCancel(context.Background())
	sources := make([]Source, len(r.slots))
	for i, slot := range r.slots {
		src := base[slot]
		src.Projection = r.proj
		data, fail, cancels := bytes.Clone(r.data[i]), r.fail[i], i == r.cancel
		src.Fetch = func(context.Context) ([]byte, error) {
			if cancels {
				cancel()
			}
			if fail {
				return nil, errors.New("no such source")
			}
			return data, nil
		}
		sources[i] = src
	}
	return ctx, cancel, sources
}

// oracleOutcome is a load's report as JSON plus each outcome's Reparsed,
// which the wire form leaves out, and the store's instances.
func oracleOutcome(t *testing.T, rep *LoadReport, st *config.Store) (string, []*config.Instance) {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var reparsed strings.Builder
	for _, o := range rep.Outcomes {
		fmt.Fprintf(&reparsed, " %t", o.Reparsed)
	}
	return string(b) + " reparsed:" + reparsed.String(), st.Snapshot().Instances()
}

// Load, threaded as one lineage, against the tenant-wide loader it
// replaced: every round of every generated sequence gives equal outcomes,
// Reparsed included, and stores holding equal instances, whatever
// MaxStale says. The sequences must reach every path: re-parses,
// projected loads, stale serving past its first round, quarantines and
// cancelled loads.
func TestLoadMatchesLoaderOracle(t *testing.T) {
	base := []Source{{Name: "a.kv", Format: "kv"}, {Name: "b.xml", Format: "xml"}, {Name: "c.kv", Format: "kv", Scope: "S"}}
	var reparsed, projected, staleAgain, quarantined, interrupted int
	for _, maxStale := range []int{-1, 0, 2} {
		for seed := int64(0); seed < 40; seed++ {
			t.Run(fmt.Sprintf("maxStale=%d/seed=%d", maxStale, seed), func(t *testing.T) {
				oracle := newOracleLoader(maxStale)
				var parses Parses
				for i, round := range generateLineage(t, seed, 16) {
					ctx, cancel, sources := round.batch(base)
					want := config.NewStore()
					wantRep, wantIns := oracleOutcome(t, oracle.Load(ctx, want, sources), want)
					cancel()
					ctx, cancel, sources = round.batch(base)
					got := config.NewStore()
					var rep *LoadReport
					rep, parses = Load(ctx, got, sources, parses, maxStale)
					cancel()
					gotRep, gotIns := oracleOutcome(t, rep, got)
					if gotRep != wantRep {
						t.Fatalf("round %d: outcomes\n got: %s\nwant: %s", i, gotRep, wantRep)
					}
					if !reflect.DeepEqual(gotIns, wantIns) {
						t.Fatalf("round %d: the store holds %d instances, the oracle's %d, or they differ", i, len(gotIns), len(wantIns))
					}
					if rep.Interrupted {
						interrupted++
					}
					for _, o := range rep.Outcomes {
						switch {
						case o.Reparsed:
							reparsed++
						case o.Stale && o.StaleRounds > 1:
							staleAgain++
						case o.Quarantined:
							quarantined++
						}
						if o.Projected != nil {
							projected++
						}
					}
				}
			})
		}
	}
	if reparsed == 0 || projected == 0 || staleAgain == 0 || quarantined == 0 || interrupted == 0 {
		t.Errorf("paths not reached: %d re-parsed, %d projected, %d stale again, %d quarantined, %d interrupted",
			reparsed, projected, staleAgain, quarantined, interrupted)
	}
	t.Logf("%d re-parsed, %d projected, %d stale again, %d quarantined, %d interrupted", reparsed, projected, staleAgain, quarantined, interrupted)
}
