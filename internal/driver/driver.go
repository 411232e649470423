// Package driver converts diverse configuration representations — XML
// hierarchies, INI files, key-value stores, JSON, YAML, CSV and REST
// endpoints — into ConfValley's unified representation (§4.2.2, Table 2 of
// the paper). Each driver is small because all validation intelligence
// lives above the unified representation.
package driver

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"confvalley/internal/config"
)

// Driver parses one configuration format into unified instances.
//
// Input bytes have one owner. Whoever is handed them owns them, may keep
// them, and nobody writes to them again; an entry that does not take
// ownership copies whatever it keeps.
type Driver interface {
	// Name is the format name used in CPL load commands ("xml", "ini", ...).
	Name() string
	// Parse converts raw source bytes into instances. sourceName is kept
	// as provenance on every instance. data stays the caller's: Parse
	// only reads it, and the instances it returns hold no reference into
	// it, so the caller may reuse the buffer as soon as Parse returns.
	Parse(data []byte, sourceName string) ([]*config.Instance, error)
}

// OwnedDriver is implemented by drivers whose instances borrow their
// strings from the document (xml, kv). For them Parse is
// ParseOwned(bytes.Clone(data)): one parser, the copy at the boundary.
type OwnedDriver interface {
	Driver
	// ParseOwned is Parse of bytes the caller hands over: the returned
	// instances point into data and keep it alive for as long as any of
	// them lives, and nothing may write to data again — not the caller
	// and not the driver.
	ParseOwned(data []byte, sourceName string) ([]*config.Instance, error)
}

// ContextDriver is implemented by drivers whose parsing involves I/O that
// must honor deadlines and cancellation (the rest driver's fetch).
// Context-aware loaders probe for it and fall back to plain Parse.
type ContextDriver interface {
	Driver
	ParseContext(ctx context.Context, data []byte, sourceName string) ([]*config.Instance, error)
}

// ParseWith dispatches to ParseContext when the driver supports it.
func ParseWith(ctx context.Context, d Driver, data []byte, sourceName string) ([]*config.Instance, error) {
	if cd, ok := d.(ContextDriver); ok {
		return cd.ParseContext(ctx, data, sourceName)
	}
	return d.Parse(data, sourceName)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]Driver)
)

// Register makes a driver available by name. Drivers in this package
// self-register; plug-in drivers may register at init time. Registering a
// duplicate name panics: it is a programming error.
func Register(d Driver) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[d.Name()]; dup {
		panic("driver: duplicate registration of " + d.Name())
	}
	registry[d.Name()] = d
}

// Lookup returns the driver for a format name.
func Lookup(name string) (Driver, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("driver: unknown configuration format %q (have %v)", name, Names())
	}
	return d, nil
}

// Names returns the registered format names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// LoadInto parses data with the named driver and adds the instances to the
// store, optionally prefixing every key with scope segments (the CPL
// "load ... as Scope" form: §4.2.2 way #3 of attaching scope information).
// data stays the caller's, as for Parse.
func LoadInto(st *config.Store, format string, data []byte, sourceName, scope string) (int, error) {
	ins, err := ParseScoped(context.Background(), format, data, sourceName, scope)
	if err != nil {
		return 0, err
	}
	st.AddAll(ins)
	return len(ins), nil
}

// ParseScoped parses data with the named driver under ctx and applies the
// scope prefix, returning the instances without adding them to any store.
// data stays the caller's, as for Parse.
func ParseScoped(ctx context.Context, format string, data []byte, sourceName, scope string) ([]*config.Instance, error) {
	ins, _, err := parseScoped(ctx, format, data, sourceName, scope, false, nil)
	return ins, err
}

// ParseScopedOwned is ParseScoped of bytes the caller hands over, as for
// ParseOwned: the instances may point into data, which nothing writes to
// again. Graceful-degradation loaders use it on the bytes they have just
// read or fetched, so a parse failure can be quarantined per source
// instead of aborting a whole load batch and the document is not copied
// on its way in.
//
// Given a projection, a driver that projects (Projects) returns only the
// instances whose scoped key proj keeps; every other driver, and a nil
// proj, parses in full. parsed counts the document's instances either
// way, kept or not.
func ParseScopedOwned(ctx context.Context, format string, data []byte, sourceName, scope string, proj *Projection) (ins []*config.Instance, parsed int, err error) {
	return parseScoped(ctx, format, data, sourceName, scope, true, proj)
}

// parseScoped parses data, which the instances may point into only if it
// is owned; a driver with no owned entry copies what it keeps either way.
// A bad scope is reported after the document's own errors, so it parses
// in full.
func parseScoped(ctx context.Context, format string, data []byte, sourceName, scope string, owned bool, proj *Projection) ([]*config.Instance, int, error) {
	d, err := Lookup(format)
	if err != nil {
		return nil, 0, err
	}
	var pre []config.Seg
	var scopeErr error
	if scope != "" {
		pre, scopeErr = scopeSegs(scope)
	}
	var ins []*config.Instance
	parsed := -1
	kv, projects := d.(kvDriver)
	od, ownedDriver := d.(OwnedDriver)
	switch {
	case projects && owned && proj != nil && scopeErr == nil:
		ins, parsed, err = kv.parseProjected(data, sourceName, proj.filter(pre))
	case ownedDriver && owned:
		ins, err = od.ParseOwned(data, sourceName)
	default:
		ins, err = ParseWith(ctx, d, data, sourceName)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("driver %s: parsing %s: %w", format, sourceName, err)
	}
	if scopeErr != nil {
		return nil, 0, scopeErr
	}
	if parsed < 0 {
		parsed = len(ins)
	}
	if len(pre) > 0 {
		for _, in := range ins {
			segs := make([]config.Seg, 0, len(pre)+len(in.Key.Segs))
			segs = append(segs, pre...)
			segs = append(segs, in.Key.Segs...)
			in.Key = config.Key{Segs: segs}
		}
	}
	return ins, parsed, nil
}

// scopeSegs parses a dotted scope prefix like "Fabric" or "Fabric::inst1".
func scopeSegs(scope string) ([]config.Seg, error) {
	k, err := config.ParseKey(scope)
	if err != nil {
		return nil, badScope(scope, err)
	}
	return k.Segs, nil
}

func badScope(scope string, err error) error {
	return fmt.Errorf("driver: bad scope %q: %w", scope, err)
}

// indexer assigns 1-based sibling ordinals to repeated (parent, name, inst)
// occurrences while a hierarchical source is walked.
type indexer struct {
	counts map[string]int
}

func newIndexer() *indexer { return &indexer{counts: make(map[string]int)} }

// next returns the ordinal for a child called name (with optional instance
// name inst) under the parent identified by parentKey.
func (ix *indexer) next(parentKey, name string) int {
	k := parentKey + "\x00" + name
	ix.counts[k]++
	return ix.counts[k]
}

// ordinals assigns 1-based sibling ordinals per open element: each scope
// element opens a scope of its own in which its children are counted by
// name, so two parents never share a counter however their keys render.
// One map for all scopes keeps a parent with n distinct child names
// linear in n.
type ordinals struct {
	counts map[ordinalKey]int
	scopes int
}

type ordinalKey struct {
	scope int
	name  string
}

// open returns a fresh scope; scope 0 is the top level and needs no open.
func (o *ordinals) open() int {
	o.scopes++
	return o.scopes
}

// next returns the ordinal of the next child called name in scope.
func (o *ordinals) next(scope int, name string) int {
	if o.counts == nil {
		o.counts = make(map[ordinalKey]int)
	}
	k := ordinalKey{scope, name}
	o.counts[k]++
	return o.counts[k]
}

// slabs holds the instances of one parse and their key segments, carved
// from slabs instead of being allocated one by one: insts is the instance
// slab being filled, full holds the ones before it, count the instances
// in all of them.
type slabs struct {
	insts []config.Instance
	full  [][]config.Instance
	count int
	segs  []config.Seg
}

// key returns room for a key of n segments, clipped: an append to one key
// can never write into the next.
func (s *slabs) key(n int) []config.Seg {
	if cap(s.segs)-len(s.segs) < n {
		s.segs = make([]config.Seg, 0, slabSize(cap(s.segs), n, 8192))
	}
	at := len(s.segs)
	s.segs = s.segs[:at+n]
	return s.segs[at : at+n : at+n]
}

// add appends one instance.
func (s *slabs) add(in config.Instance) {
	if len(s.insts) == cap(s.insts) {
		if len(s.insts) > 0 {
			s.full = append(s.full, s.insts)
		}
		s.insts = make([]config.Instance, 0, slabSize(cap(s.insts), 1, 2048))
	}
	s.insts = append(s.insts, in)
	s.count++
}

// instances is the parse's result, in document order: one slice made at
// its final size, where growing it by append would have left several
// times that behind as garbage.
func (s *slabs) instances() []*config.Instance {
	if s.count == 0 {
		return nil
	}
	out := make([]*config.Instance, 0, s.count)
	for _, slab := range append(s.full, s.insts) {
		for i := range slab {
			out = append(out, &slab[i])
		}
	}
	return out
}

// slabSize doubles the previous slab up to limit, so a small document
// pays for a small slab and a large one allocates a few hundred times;
// need is the one request that must fit whatever the limit.
func slabSize(prev, need, limit int) int {
	n := 2 * prev
	if n < 16 {
		n = 16
	}
	if n > limit {
		n = limit
	}
	if n < need {
		n = need
	}
	return n
}
