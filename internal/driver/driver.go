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
type Driver interface {
	// Name is the format name used in CPL load commands ("xml", "ini", ...).
	Name() string
	// Parse converts raw source bytes into instances. sourceName is kept
	// as provenance on every instance.
	Parse(data []byte, sourceName string) ([]*config.Instance, error)
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
// Graceful-degradation loaders use it so a parse failure can be
// quarantined per source instead of aborting a whole load batch.
func ParseScoped(ctx context.Context, format string, data []byte, sourceName, scope string) ([]*config.Instance, error) {
	d, err := Lookup(format)
	if err != nil {
		return nil, err
	}
	ins, err := ParseWith(ctx, d, data, sourceName)
	if err != nil {
		return nil, fmt.Errorf("driver %s: parsing %s: %w", format, sourceName, err)
	}
	if scope != "" {
		pre, err := scopeSegs(scope)
		if err != nil {
			return nil, err
		}
		for _, in := range ins {
			segs := make([]config.Seg, 0, len(pre)+len(in.Key.Segs))
			segs = append(segs, pre...)
			segs = append(segs, in.Key.Segs...)
			in.Key = config.Key{Segs: segs}
		}
	}
	return ins, nil
}

// scopeSegs parses a dotted scope prefix like "Fabric" or "Fabric::inst1".
func scopeSegs(scope string) ([]config.Seg, error) {
	k, err := config.ParseKey(scope)
	if err != nil {
		return nil, fmt.Errorf("driver: bad scope %q: %w", scope, err)
	}
	return k.Segs, nil
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
