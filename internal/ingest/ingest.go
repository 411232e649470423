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
//   - a load keeps the *last good parse* of every source of its batch
//     (Parses) and the next round's load starts from them, so a torn
//     mid-write file degrades that one source to stale data instead of
//     killing the round, with the staleness (and its age in rounds)
//     surfaced in the report;
//   - loading honors a context: a deadline or Ctrl-C stops between
//     sources and marks the report interrupted;
//   - a driver that panics on hostile input is contained to a per-source
//     quarantine, same as a parse error.
package ingest

import (
	"context"
	"fmt"
	"os"
	"strings"

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
	// latest full parse of it the previous load kept (driver.Reparser):
	// nothing the load produced or keeps points into them, so whoever
	// handed them over may reuse them. It is not part of the wire form.
	Reparsed bool `json:"-"`
}

// LoadReport aggregates one load round's per-source outcomes.
type LoadReport struct {
	Outcomes []Outcome `json:"outcomes"`
	// Interrupted marks a load cut off by context cancellation; sources
	// after the cut contributed nothing and have no outcome.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Instances totals the instances contributed across all sources.
func (r *LoadReport) Instances() int {
	n := 0
	for _, o := range r.Outcomes {
		n += o.Instances
	}
	return n
}

// Degraded reports whether any source failed this round (stale or
// quarantined).
func (r *LoadReport) Degraded() bool {
	for _, o := range r.Outcomes {
		if o.Err != "" {
			return true
		}
	}
	return false
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

// lastGood is the retained parse of one source.
type lastGood struct {
	parse
	staleRounds int
	// base is the source's latest full parse when its driver re-parses
	// (driver.Reparser), nil otherwise: ins is base's instances or a delta
	// re-parse of base, which shares them. Only a full parse replaces it.
	base *document
}

// document is a full parse of bytes the load owns: the bytes, and the
// instances that borrow from them, with their partition, which a delta
// re-parse's store build starts from (config.Partition.Revalue).
type document struct {
	data []byte
	parse
}

// Parses is what one load of a batch keeps for the next load of the
// same sources: the last good parse of each of the batch's sources. A
// lineage of runs hands each load the parses the one before returned, so
// a source torn mid-write in round N serves round N-1's parse. Parses are
// immutable once Load returns them, so concurrent loads may start from
// the same ones. Nil is a lineage's first load, which loads cold.
type Parses map[goodKey]*lastGood

// Load fetches, parses and stores every source, never aborting the batch
// on a per-source failure: a failed source is served stale from its parse
// in prev, within maxStale rounds, or quarantined, and the returned
// LoadReport accounts for every source examined. maxStale bounds how many
// consecutive rounds a failing source is served its last good parse: 0
// serves it indefinitely, negative never. Cancellation between sources
// stops the batch with Interrupted set. The returned parses are those of
// this batch's sources, examined or not, and of no other.
//
// A source whose driver re-parses (xml, kv) is first re-parsed against
// its latest full parse in prev, when there is one: if the new bytes
// differ from the parsed ones inside values only, the unchanged instances
// are reused and the changed values copied, so the new bytes are not
// retained (Outcome.Reparsed), and the store is built from the full
// parse's class partition with only the changed classes copied. Anything
// else is parsed in full, and that parse — bytes, instances, partition —
// is what later loads are measured against. The bytes a source hands
// over are lent, then: a full parse keeps them, a re-parse does not.
func Load(ctx context.Context, st *config.Store, sources []Source, prev Parses, maxStale int) (*LoadReport, Parses) {
	next := make(Parses, len(sources))
	for _, src := range sources {
		if key := keyOf(src); prev[key] != nil {
			next[key] = prev[key]
		}
	}
	rep := &LoadReport{}
	for _, src := range sources {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		rep.Outcomes = append(rep.Outcomes, next.load(ctx, st, src, keyOf(src), maxStale))
	}
	return rep, next
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

// load handles one source: fetch, parse (panic-contained), store, and
// the source's entry in next, which holds the source's last good parse
// on entry and its parse for the next load on return.
func (next Parses) load(ctx context.Context, st *config.Store, src Source, key goodKey, maxStale int) Outcome {
	out := Outcome{Source: src.Name, Driver: key.format}
	g := next[key]
	var base *document
	if g != nil {
		base = g.base
	}
	p, doc, err := fetchAndParse(ctx, src, key.format, base)
	if err == nil {
		out.Reparsed = base != nil && doc == base
		st.AddPartition(p.part)
		p.count(&out)
		next[key] = &lastGood{parse: p, base: doc}
		return out
	}
	out.Err = err.Error()
	if g == nil {
		out.Quarantined = true
		return out
	}
	// Degrade: serve the last good parse when it is not too stale.
	// Instances are immutable once parsed, so re-adding the same pointers
	// to a fresh store is sound. An empty document's parse is not served:
	// its instances are nil. A projection that kept none of a document's
	// is, as the full parse would be.
	aged := *g
	aged.staleRounds++
	next[key] = &aged
	if aged.parsed == 0 || maxStale < 0 || (maxStale > 0 && aged.staleRounds > maxStale) {
		out.Quarantined = true
		return out
	}
	st.AddPartition(aged.part)
	aged.count(&out)
	out.Stale = true
	out.StaleRounds = aged.staleRounds
	return out
}

// LoadSource fetches and parses one source and adds its instances to
// st: the strict load, which keeps no parse and serves nothing stale. A
// fetch error, parse error or driver panic is returned as the error Load
// would quarantine the source with.
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
// panic into a per-source error. The bytes are the load's by now — it
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
