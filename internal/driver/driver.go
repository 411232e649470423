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
	ins, _, _, err := parseScoped(ctx, format, data, sourceName, scope, false, nil)
	return ins, err
}

// ParsePartition is ParseScoped of bytes the caller hands over, as for
// ParseOwned, with the instances grouped by class as a store is built
// from them (config.Partition): the instances may point into data,
// which nothing writes to again. Graceful-degradation loaders use it on
// the bytes they have just read or fetched, so a parse failure can be
// quarantined per source instead of aborting a whole load batch and the
// document is not copied on its way in.
//
// Given a projection, a driver that projects (Projects) returns only the
// instances whose scoped key proj keeps; every other driver, and a nil
// proj, parses in full. parsed counts the document's instances either
// way, kept or not. The kv driver numbers the class of each line it
// keeps as it scans (DESIGN.md §5, "Projected ingest"), so its partition
// is a counting sort over those numbers; every other driver's instances
// are classified by config.NewPartition.
func ParsePartition(ctx context.Context, format string, data []byte, sourceName, scope string, proj *Projection) (part *config.Partition, parsed int, err error) {
	ins, cl, parsed, err := parseScoped(ctx, format, data, sourceName, scope, true, proj)
	if err != nil {
		return nil, 0, err
	}
	if cl != nil {
		return config.NewPartitionOf(ins, cl.of, cl.kept), parsed, nil
	}
	return config.NewPartition(ins), parsed, nil
}

// parseScoped parses data, which the instances may point into only if it
// is owned; a driver with no owned entry copies what it keeps either way.
// The kv driver scans owned data through proj's filter, a keep-all one
// when proj is nil, and returns the classes it numbered; for every other
// parse classes is nil. A bad scope is reported after the document's
// own errors, so it parses in full.
func parseScoped(ctx context.Context, format string, data []byte, sourceName, scope string, owned bool, proj *Projection) (ins []*config.Instance, classes *scanClasses, parsed int, err error) {
	d, err := Lookup(format)
	if err != nil {
		return nil, nil, 0, err
	}
	var pre []config.Seg
	var scopeErr error
	if scope != "" {
		pre, scopeErr = scopeSegs(scope)
	}
	parsed = -1
	kv, projects := d.(kvDriver)
	od, ownedDriver := d.(OwnedDriver)
	sd, scopes := d.(scopedParser)
	switch {
	case projects && owned:
		f := proj.filter(pre)
		var of [][]int32
		ins, of, parsed, err = kv.parseProjected(data, sourceName, f, pre)
		classes = &scanClasses{of: of, kept: f.kept}
		pre = nil // the keys start with it
	case scopes && owned:
		ins, err = sd.parseOwnedScoped(data, sourceName, pre)
		pre = nil
	case ownedDriver && owned:
		ins, err = od.ParseOwned(data, sourceName)
	default:
		ins, err = ParseWith(ctx, d, data, sourceName)
	}
	if err != nil {
		return nil, nil, 0, fmt.Errorf("driver %s: parsing %s: %w", format, sourceName, err)
	}
	if scopeErr != nil {
		return nil, nil, 0, scopeErr
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
	return ins, classes, parsed, nil
}

// scanClasses is what a numbering scan decided: the class numbers of
// its instances, slab by slab (config.NewPartitionOf), and kept[g] the
// segment names of class g.
type scanClasses struct {
	of   [][]int32
	kept [][]string
}

// scopedParser is implemented by the drivers that carve keys from slabs
// (kv, xml): they parse a scoped document into keys that start with the
// scope, so a scoped parse makes no key of its own per instance.
type scopedParser interface {
	// parseOwnedScoped is ParseOwned with every key prefixed by pre.
	parseOwnedScoped(data []byte, sourceName string, pre []config.Seg) ([]*config.Instance, error)
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
// element opens a frame of its own in which its children are counted by
// name, so two parents never share a counter however their keys render.
// frames[0] counts the top level, which outlives each top-level element,
// and frames[d] the children of the open scope element at depth d. A
// frame's slot is reset when the next element at its depth opens, so a
// parse keeps one frame per depth, not one counter per (element, name)
// pair of the document. A frame counts its first frameNames names in
// place and switches to a map past them, which keeps a parent with n
// distinct child names linear in n.
type ordinals struct {
	frames []ordinalFrame
	depth  int
}

// frameNames is how many distinct child names a frame counts in place:
// the widest elements of the Type A corpus have 18.
const frameNames = 32

type ordinalFrame struct {
	n      int
	names  [frameNames]string
	counts [frameNames]int
	many   map[string]int // every name's count once there are more than frameNames
}

// next returns the ordinal of the next child called name of the innermost
// open element (of the top level when none is open).
func (o *ordinals) next(name string) int {
	if o.depth == len(o.frames) {
		o.frames = append(o.frames, ordinalFrame{})
	}
	f := &o.frames[o.depth]
	if f.many != nil {
		f.many[name]++
		return f.many[name]
	}
	for i := range f.n {
		if f.names[i] == name {
			f.counts[i]++
			return f.counts[i]
		}
	}
	if f.n < frameNames {
		f.names[f.n], f.counts[f.n] = name, 1
		f.n++
		return 1
	}
	f.many = make(map[string]int, 2*frameNames)
	for i, n := range f.names {
		f.many[n] = f.counts[i]
	}
	f.many[name] = 1
	return 1
}

// open opens a frame for the children of the element just numbered,
// resetting the slot an earlier element at its depth left.
func (o *ordinals) open() {
	o.depth++
	if o.depth < len(o.frames) {
		f := &o.frames[o.depth]
		f.n, f.many = 0, nil
	}
}

// close closes the innermost open frame.
func (o *ordinals) close() {
	o.depth--
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
	// pre is the scope every key starts with (the CPL "load ... as
	// Scope" form), nil for none.
	pre []config.Seg
	// A parse that numbers classes (addOf) keeps the class numbers of
	// insts' instances in of and those of full's in fullOf, slab for slab.
	of     []int32
	fullOf [][]int32
}

// key returns a key of len(pre)+n segments that starts with the scope,
// and the room for the document's n segments behind it, both clipped:
// an append to one key can never write into the next.
func (s *slabs) key(n int) (key, room []config.Seg) {
	n += len(s.pre)
	if cap(s.segs)-len(s.segs) < n {
		s.segs = make([]config.Seg, 0, slabSize(cap(s.segs), n, 8192))
	}
	at := len(s.segs)
	s.segs = s.segs[:at+n]
	key = s.segs[at : at+n : at+n]
	return key, key[copy(key, s.pre):]
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

// addOf appends one instance of class g.
func (s *slabs) addOf(in config.Instance, g int32) {
	s.add(in)
	if len(s.insts) == 1 { // a new slab
		if s.of != nil {
			s.fullOf = append(s.fullOf, s.of)
		}
		s.of = make([]int32, 0, cap(s.insts))
	}
	s.of = append(s.of, g)
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

// classes is the class numbers of instances(), slab by slab, when
// every instance was added by addOf.
func (s *slabs) classes() [][]int32 {
	if s.count == 0 {
		return nil
	}
	return append(s.fullOf, s.of)
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
