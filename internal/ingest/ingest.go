// Package ingest is the fault-tolerance layer between configuration
// sources and the unified representation. ConfValley validates *before*
// deployment against configuration pulled from many heterogeneous,
// unreliable sources — files mid-edit, flaky REST endpoints, malformed
// formats — and real cloud corpora are full of partially-broken text
// configs that must be ingested anyway (ConfEx). The raw driver layer is
// all-or-nothing: one parse error in driver.LoadInto aborts the entire
// load. This package wraps it with per-source outcomes:
//
//   - a malformed or unreadable source is *quarantined* into a
//     structured LoadReport entry (source, driver, error, instance
//     count) instead of aborting the batch;
//   - a Loader retained across validation rounds keeps the *last good
//     parse* of every source its latest batch named, so a torn mid-write
//     file degrades that one
//     source to stale data instead of killing the round, with the
//     staleness (and its age in rounds) surfaced in the report;
//   - loading honors a context: a deadline or Ctrl-C stops between
//     sources and marks the report interrupted;
//   - a driver that panics on hostile input is contained to a per-source
//     quarantine, same as a parse error.
package ingest

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"confvalley/internal/config"
	"confvalley/internal/driver"
)

// Source describes one configuration source to load.
type Source struct {
	// Name is the source's identity: a file path, a REST endpoint URL,
	// or a registered in-memory name. It is the provenance recorded on
	// every instance and the key under which last-good parses are kept.
	Name string
	// Format is the driver name; empty infers from the file extension.
	Format string
	// Scope optionally prefixes every key (the CPL "load ... as Scope"
	// form).
	Scope string
	// Fetch retrieves the raw bytes. Nil reads the file at Name from
	// disk. The rest driver ignores the bytes' content beyond the URL,
	// so REST sources pass the URL itself. The bytes are handed over:
	// parsed instances may point into them for as long as they live, so
	// nothing may write to them after Fetch returns. Returning the same
	// never-written bytes on every call is fine.
	Fetch func(ctx context.Context) ([]byte, error)
	// Projection, when set, keeps only the classes a program can read:
	// a driver that projects (kv) builds instances for those alone, and
	// every other driver ignores it. A projected parse is retained under
	// the projection's identity, so one loaded under one projection is
	// never served to a load under another.
	Projection *driver.Projection
}

// Outcome is one source's per-round result.
type Outcome struct {
	Source string `json:"source"`
	Driver string `json:"driver"`
	// Instances the source's parse holds this round (fresh or stale):
	// every instance of the document, projected or not.
	Instances int `json:"instances"`
	// Projected counts the instances that reached the store when a
	// projection applied — possibly none — and is nil when none did.
	Projected *int `json:"projected,omitempty"`
	// Err is the fetch/parse failure, empty on a clean load.
	Err string `json:"err,omitempty"`
	// Stale means the source failed this round but its last good parse
	// was served instead.
	Stale bool `json:"stale,omitempty"`
	// StaleRounds counts consecutive rounds this source has been served
	// stale (1 on the first failing round).
	StaleRounds int `json:"stale_rounds,omitempty"`
	// Quarantined means the source contributed nothing this round: it
	// failed and no last good parse was available (or the parse outlived
	// MaxStale).
	Quarantined bool `json:"quarantined,omitempty"`
	// Reparsed means the source's bytes were re-parsed against the
	// loader's latest full parse of it (driver.Reparser): nothing the load
	// produced or the loader keeps points into them, so whoever handed
	// them over may reuse them. It is not part of the wire form.
	Reparsed bool `json:"-"`
}

// LoadReport aggregates one load round's per-source outcomes.
type LoadReport struct {
	Outcomes []Outcome `json:"outcomes"`
	// Interrupted marks a load cut off by context cancellation; sources
	// after the cut contributed nothing and have no outcome.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Loaded counts sources that contributed fresh instances this round.
func (r *LoadReport) Loaded() int { return r.count(func(o Outcome) bool { return o.Err == "" }) }

// Stale counts sources served from their last good parse.
func (r *LoadReport) Stale() int { return r.count(func(o Outcome) bool { return o.Stale }) }

// Quarantined counts sources that contributed nothing.
func (r *LoadReport) Quarantined() int {
	return r.count(func(o Outcome) bool { return o.Quarantined })
}

// Instances totals the instances contributed across all sources.
func (r *LoadReport) Instances() int {
	n := 0
	for _, o := range r.Outcomes {
		n += o.Instances
	}
	return n
}

// AllFailed reports whether every source failed to contribute data —
// the condition under which a round has nothing at all to validate.
// False for an empty source list.
func (r *LoadReport) AllFailed() bool {
	if len(r.Outcomes) == 0 {
		return false
	}
	return r.Quarantined() == len(r.Outcomes)
}

// Degraded reports whether any source failed this round (stale or
// quarantined).
func (r *LoadReport) Degraded() bool {
	return r.count(func(o Outcome) bool { return o.Err != "" }) > 0
}

func (r *LoadReport) count(f func(Outcome) bool) int {
	n := 0
	for _, o := range r.Outcomes {
		if f(o) {
			n++
		}
	}
	return n
}

// Render writes a compact human-readable load summary, one line per
// degraded source plus a totals line when anything degraded.
func (r *LoadReport) Render(w interface{ Write([]byte) (int, error) }) {
	for _, o := range r.Outcomes {
		switch {
		case o.Quarantined:
			fmt.Fprintf(w, "load: QUARANTINED %s (%s): %s\n", o.Source, o.Driver, o.Err)
		case o.Stale:
			fmt.Fprintf(w, "load: STALE %s (%s): serving last good parse (%d instance(s), %d round(s) old): %s\n",
				o.Source, o.Driver, o.Instances, o.StaleRounds, o.Err)
		}
	}
	if r.Interrupted {
		fmt.Fprintf(w, "load: interrupted before all sources were read\n")
	}
}

// goodKey identifies one retained parse. Scope and driver are part of
// the identity because instances are stored scoped: one file loaded
// under two scopes keeps two parses, and neither is served for the other.
// So is the projection's identity, for a driver that projects: a parse
// projected for one program lacks classes another reads.
type goodKey struct{ name, format, scope, proj string }

// source is the key with the projection left out: the source a parse
// is of, whichever program it was projected for.
func (k goodKey) source() goodKey {
	k.proj = ""
	return k
}

// maxViews bounds the parses one source keeps under distinct
// projections. Each holds its own copy of the source's bytes, so the
// bound is what stops a service whose programs keep changing from
// accumulating one per retired program.
const maxViews = 8

// lastGood is the retained parse of one source.
type lastGood struct {
	parse
	staleRounds int
	used        uint64 // Loader.clock when it was last stored or served
	// base is the source's latest full parse when its driver re-parses
	// (driver.Reparser), nil otherwise: ins is base's instances or a delta
	// re-parse of base, which shares them. Only a full parse replaces it.
	base *document
}

// document is a full parse of bytes the loader owns: the bytes, and the
// instances that borrow from them, with their partition, which a delta
// re-parse's store build starts from (config.Partition.Revalue).
type document struct {
	data []byte
	parse
}

// ParseStats counts a loader's clean loads by how their instances were
// obtained; Parsed + Reparsed is every source it has loaded cleanly.
type ParseStats struct {
	// Parsed counts full parses.
	Parsed int64
	// Reparsed counts delta re-parses against a retained full parse
	// (driver.Reparser): bytes that differed from it inside values only.
	Reparsed int64
}

// Loader loads batches of sources with graceful degradation, retaining
// each source's last good parse across rounds. The zero value is ready
// to use. A Loader is safe for concurrent use; watch-style callers keep
// one alive for the life of the session so a source torn mid-write in
// round N serves round N-1's parse.
//
// A Loader retains the parses of the sources of the batch it loaded last
// and of no other: each Load drops every parse its batch does not name.
// A watch session loads one fixed source set every round and keeps all of
// it; a service, whose requests name their payloads, keeps one request's
// per concurrent load however many names it has been sent. A source
// loaded through projections keeps one parse per projection, so programs
// that take turns over it each keep theirs, up to maxViews of them: the
// least recently loaded goes first.
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
type Loader struct {
	// MaxStale bounds how many consecutive rounds a failing source is
	// served from its last good parse before it degrades to quarantined.
	// 0 means serve stale data indefinitely; negative disables stale
	// serving entirely (every failure quarantines).
	MaxStale int

	mu    sync.Mutex
	good  map[goodKey]*lastGood
	clock uint64 // counts parses stored or served, ordering lastGood.used

	parsed, reparsed atomic.Int64 // ParseStats
}

// NewLoader returns a Loader with the given staleness bound.
func NewLoader(maxStale int) *Loader { return &Loader{MaxStale: maxStale} }

// ParseStats reports how the loader's clean loads so far were parsed.
func (l *Loader) ParseStats() ParseStats {
	return ParseStats{Parsed: l.parsed.Load(), Reparsed: l.reparsed.Load()}
}

// Load fetches, parses and stores every source, never aborting the batch
// on a per-source failure: failed sources are served stale (within
// MaxStale) or quarantined, and the returned LoadReport accounts for
// every source examined. Cancellation between sources stops the batch
// with Interrupted set. Afterwards the loader retains the parses of this
// batch's sources only, examined or not.
func (l *Loader) Load(ctx context.Context, st *config.Store, sources []Source) *LoadReport {
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
// used parses beyond maxViews.
func (l *Loader) retainOnly(sources []Source) {
	named := make(map[goodKey]bool, len(sources))
	for _, src := range sources {
		named[keyOf(src).source()] = true
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
		if len(ks) <= maxViews {
			continue
		}
		slices.SortFunc(ks, func(a, b goodKey) int { return cmp.Compare(l.good[b].used, l.good[a].used) })
		for _, k := range ks[maxViews:] {
			delete(l.good, k)
		}
	}
}

// keyOf is the key a source's parse is retained under.
func keyOf(src Source) goodKey {
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
func (l *Loader) loadOne(ctx context.Context, st *config.Store, src Source) Outcome {
	key := keyOf(src)
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
			l.good = make(map[goodKey]*lastGood)
		}
		l.clock++
		l.good[key] = &lastGood{parse: p, base: doc, used: l.clock}
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

// LoadSource fetches and parses one source and adds its instances to
// st: the strict load, which keeps no parse and serves nothing stale. A
// fetch error, parse error or driver panic is returned as the error a
// Loader would quarantine the source with.
func LoadSource(ctx context.Context, st *config.Store, src Source) error {
	p, _, err := fetchAndParse(ctx, src, keyOf(src).format, nil)
	if err != nil {
		return err
	}
	st.AddPartition(p.part)
	return nil
}

// parse is one source's instances as a load obtained them.
type parse struct {
	ins       []*config.Instance
	part      *config.Partition // ins by class, what the store is built from
	parsed    int               // instances in the document
	projected bool              // ins holds the projection's classes only
}

// count records the parse's instances on the source's outcome.
func (p parse) count(out *Outcome) {
	out.Instances = p.parsed
	if p.projected {
		n := len(p.ins)
		out.Projected = &n
	}
}

// fetchAndParse reads a source's bytes and parses them, through the
// source's projection, converting a fetch error, parse error or driver
// panic into a per-source error. The bytes are the loader's by now — it
// read them, or Fetch handed them over — so the driver gets them to
// keep. Given base, the source's latest full parse under the same
// projection, it re-parses against that first (driver.Reparser) and
// returns base itself as doc when the re-parse holds; otherwise doc is
// this full parse when the driver re-parses, nil when it does not.
func fetchAndParse(ctx context.Context, src Source, format string, base *document) (p parse, doc *document, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, doc, err = parse{}, nil, fmt.Errorf("driver %s: panic parsing %s: %v", format, src.Name, r)
		}
	}()
	var data []byte
	if src.Fetch != nil {
		data, err = src.Fetch(ctx)
	} else {
		data, err = os.ReadFile(src.Name)
	}
	if err != nil {
		return parse{}, nil, fmt.Errorf("reading %s: %w", src.Name, err)
	}
	d, _ := driver.Lookup(format) // an unknown format is ParseScopedOwned's error
	r, reparses := d.(driver.Reparser)
	if base != nil && reparses {
		// Outside base's values the bytes are equal, so a projected base
		// re-parses to the projection of the new document; a change to a
		// line the projection dropped is outside them and declines.
		if ins, ok := r.Reparse(base.data, base.ins, data); ok {
			return parse{ins, base.part.Revalue(ins), base.parsed, base.projected}, base, nil
		}
	}
	p.ins, p.parsed, err = driver.ParseScopedOwned(ctx, format, data, src.Name, src.Scope, src.Projection)
	p.projected = src.Projection != nil && driver.Projects(format)
	if err != nil {
		return p, nil, err
	}
	p.part = config.NewPartition(p.ins)
	if !reparses {
		return p, nil, nil
	}
	return p, &document{data: data, parse: p}, nil
}

// FormatFromPath guesses a driver name from a file extension; the root
// package re-exports the same mapping.
func FormatFromPath(path string) string {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		return "kv"
	}
	switch strings.ToLower(path[dot:]) {
	case ".xml":
		return "xml"
	case ".ini", ".conf", ".cfg":
		return "ini"
	case ".json":
		return "json"
	case ".yaml", ".yml":
		return "yaml"
	case ".csv":
		return "csv"
	default:
		return "kv"
	}
}

// Forget drops a source's retained last-good parses (test hygiene, or a
// source administratively removed from the set).
func (l *Loader) Forget(name string) {
	l.mu.Lock()
	for k := range l.good {
		if k.name == name {
			delete(l.good, k)
		}
	}
	l.mu.Unlock()
}
