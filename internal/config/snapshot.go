package config

import "sort"

// Snapshot is an immutable, sealed view of a Store. The instance list,
// class indexes and the class-path trie are fixed when the snapshot is
// sealed, so any number of goroutines may discover against it with no
// locking at all; the only mutable component is the discovery cache,
// one bounded map behind one RWMutex. A run that wants one consistent
// view of the configuration — a parallel plan execution, a watch round —
// pins a snapshot once and reads it throughout, unaffected by concurrent
// Store mutations.
type Snapshot struct {
	// The instances in load order: n of them, in instances, or in lazy
	// when the store held one adopted partition (Store.AddPartition).
	instances []*Instance
	lazy      *loadOrder
	n         int

	idx   *classIndex   // the classes, load order
	lists [][]*Instance // lists[g]: the instances of class g, load order
	trie  *trieNode     // class-name trie for wildcard queries

	cache discoveryCache
	stats *DiscoveryStats // shared with the parent store
}

// Len returns the number of instances sealed into the snapshot.
func (sn *Snapshot) Len() int { return sn.n }

// Instances returns all instances in load order, building the list the
// first time when the snapshot is of one re-valued partition
// (Partition.Revalue). The slice is shared; callers must not modify it.
func (sn *Snapshot) Instances() []*Instance {
	if sn.lazy != nil {
		return sn.lazy.get()
	}
	return sn.instances
}

// Classes returns all class paths (dotted display form) in load order.
func (sn *Snapshot) Classes() []string {
	out := make([]string, len(sn.idx.ids))
	for i, id := range sn.idx.ids {
		out[i] = displayClass(id)
	}
	return out
}

// ClassInstances returns the instances of one class, identified by its
// dotted display path as returned by Classes. When a segment name itself
// contains dots (some key-value stores use dotted parameter names), the
// display path is ambiguous and the union of matching classes is
// returned.
func (sn *Snapshot) ClassInstances(classPath string) []*Instance {
	var out []*Instance
	for g, id := range sn.idx.ids {
		if displaysAs(id, classPath) {
			out = append(out, sn.lists[g]...)
		}
	}
	return out
}

// class returns the instances of the class with ID id, nil when the
// snapshot has none.
func (sn *Snapshot) class(id string) []*Instance {
	if g, ok := sn.idx.num[id]; ok {
		return sn.lists[g]
	}
	return nil
}

// displaysAs reports whether displayClass(id) == path without rendering
// it: byte by byte, reading classSep as '.'.
func displaysAs(id, path string) bool {
	if len(id) != len(path) {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c == classSep {
			c = '.'
		}
		if c != path[i] {
			return false
		}
	}
	return true
}

// Query is a discovery pattern with its canonical cache key rendered
// once. A caller that asks the same question on every run — a lowered
// plan's static references — builds the Query ahead of time and pays no
// rendering per lookup.
type Query struct {
	Pattern Pattern
	key     string
}

// NewQuery renders p's cache key.
func NewQuery(p Pattern) Query {
	return Query{Pattern: p, key: p.key()}
}

// View finds all instances matching the query, using the sealed
// class-path indexes and the discovery cache (§5.2 optimization #1:
// discover once, reuse). The result is borrowed: it is the cache's own
// canonical slice — for a pattern that matches one class by its names
// alone, that class's sealed instance list itself — shared with every
// other reader of the snapshot, so callers must not write to its
// elements or sort it. Its capacity is clipped to its length, so an
// append copies instead of writing into the cache or the class. The
// plan executor reads through View; anything that wants a slice to keep
// or modify calls Discover.
func (sn *Snapshot) View(q Query) []*Instance {
	sn.stats.queries.Add(1)
	if hit, ok := sn.cache.get(q.key); ok {
		sn.stats.cacheHits.Add(1)
		return hit
	}
	// Concurrent misses on the same cold key may compute twice; discovery
	// is deterministic over sealed indexes, so either result may win the
	// cache slot.
	res := sn.discover(q.Pattern)
	res = res[:len(res):len(res)]
	sn.cache.put(q.key, res)
	return res
}

// Discover is View plus a copy: the returned slice is owned by the
// caller, who may sort, append to or overwrite it without disturbing
// the cached result later queries are served from.
func (sn *Snapshot) Discover(p Pattern) []*Instance {
	return copyResult(sn.View(NewQuery(p)))
}

// Count reports how many instances match the pattern. Like View it
// copies nothing, so callers that only need cardinality — the engine's
// cost-model partitioner estimates per-spec work from footprint match
// counts — pay no per-call allocation, and the entries they warm are
// exactly the ones the subsequent validation run will hit.
func (sn *Snapshot) Count(p Pattern) int {
	return len(sn.View(NewQuery(p)))
}

func (sn *Snapshot) discover(p Pattern) []*Instance {
	if len(p.Segs) == 0 || p.HasVars() {
		return nil
	}
	var classPaths []string
	if len(p.Segs) == 1 {
		classPaths = sn.leafClassPaths(p.Segs[0].Name)
	} else {
		classPaths = sn.matchClassPaths(p)
	}
	if !p.namesOnly() {
		var out []*Instance
		for _, cp := range classPaths {
			for _, in := range sn.class(cp) {
				if p.MatchKey(in.Key) {
					out = append(out, in)
				}
			}
		}
		return out
	}
	// The index matched the classes by their names, and the pattern asks
	// nothing else, so every instance of each matches: one class is its
	// sealed slice itself, and several are those slices end to end.
	if len(classPaths) == 1 {
		return sn.class(classPaths[0])
	}
	n := 0
	for _, cp := range classPaths {
		n += len(sn.class(cp))
	}
	if n == 0 {
		return nil
	}
	out := make([]*Instance, 0, n)
	for _, cp := range classPaths {
		out = append(out, sn.class(cp)...)
	}
	return out
}

// leafClassPaths returns the class paths whose final segment matches the
// (possibly wildcarded) leaf name.
func (sn *Snapshot) leafClassPaths(leafPat string) []string {
	if !hasGlob(leafPat) {
		return sn.idx.leaf[leafPat]
	}
	var out []string
	for leaf, cps := range sn.idx.leaf {
		if Glob(leafPat, leaf) {
			out = append(out, cps...)
		}
	}
	sort.Strings(out) // map iteration order is random; keep results stable
	return out
}

// matchClassPaths walks the sealed class-path trie to find classes whose
// segment names match the pattern.
func (sn *Snapshot) matchClassPaths(p Pattern) []string {
	var out []string
	sn.trie.match(p.Segs, 0, &out)
	return out
}

// DiscoverNaive is the paper's initial discovery implementation, kept
// for the §5.2 ablation benchmark: scan every instance and test its key
// with MatchKey. It bypasses all indexes and the cache.
func (sn *Snapshot) DiscoverNaive(p Pattern) []*Instance {
	sn.stats.queries.Add(1)
	var out []*Instance
	for _, in := range sn.Instances() {
		if p.MatchKey(in.Key) {
			out = append(out, in)
		}
	}
	sn.stats.scanned.Add(int64(sn.n))
	return out
}

// CacheEntries reports how many discovery results the snapshot's cache
// currently holds; the bound test and the watch-mode memory ceiling
// depend on it staying below discoveryCacheBound.
func (sn *Snapshot) CacheEntries() int { return sn.cache.entries() }
