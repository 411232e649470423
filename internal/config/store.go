package config

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Store holds the unified representation of one or more configuration
// sources and answers instance-discovery queries from the validation
// engine. Discovery is the hot path (§5.2 reports >5 million queries in
// some Azure validation runs), so the store maintains a trie over class
// paths, per-class instance lists, and a query cache per snapshot.
//
// Concurrency model (see DESIGN.md "Concurrency model"): mutations
// (Add/AddAll) build into a mutable staging area under the store lock;
// Snapshot seals the staging area into an immutable Snapshot whose
// indexes are read with no locking. Discover routes through the current
// snapshot. A sealed snapshot is never mutated — the first mutation
// after a seal clones the index maps (copy-on-write), so goroutines
// holding the old snapshot keep a consistent view. The Store is safe
// for concurrent use: Add may race with Discover, and each Discover
// sees either the pre- or post-Add world, never a torn one.
type Store struct {
	mu sync.Mutex // guards the staging area below and sealing

	instances []*Instance
	byClass   map[string][]*Instance // class ID -> instances, load order
	classes   []string               // class IDs, load order, deduplicated
	classSegs map[string][]string    // class ID -> segment names
	byLeaf    map[string][]string    // leaf name -> class IDs

	// snap is the current sealed snapshot, nil when the staging area has
	// changed since the last seal. shared marks that a sealed snapshot
	// may still alias the staging maps, so the next mutation must clone
	// them first.
	snap   atomic.Pointer[Snapshot]
	shared bool

	// contentID is an optional caller-supplied content address (see
	// SetContentID); cleared by any mutation so a stale address can never
	// outlive the content it named.
	contentID string

	// Stats counts discovery work for the Figure 4 / §5.2 ablations.
	// Counters are atomic so parallel validation runs race-free; they
	// accumulate across snapshots. Allocated apart from the Store so
	// that a snapshot, which counts into them, holds no pointer back
	// into the store that holds it.
	Stats *DiscoveryStats
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byClass:   make(map[string][]*Instance),
		classSegs: make(map[string][]string),
		byLeaf:    make(map[string][]string),
		Stats:     new(DiscoveryStats),
	}
}

// Add inserts an instance into the store. The next Discover (or
// Snapshot) seals a fresh snapshot; readers holding an earlier snapshot
// are unaffected.
func (st *Store) Add(in *Instance) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.beginMutation()
	st.instances = append(st.instances, in)
	id := classID(in.Key)
	if _, seen := st.byClass[id]; !seen {
		st.addClass(id, in.Key)
	}
	st.byClass[id] = append(st.byClass[id], in)
}

// AddAll inserts a batch of instances, in order, as Add would one by one.
// It is a bulk build over one grouping of the batch by class: a class
// costs one ID string and one instance list, carved from an array the
// whole batch shares, and an instance costs no allocation at all.
func (st *Store) AddAll(ins []*Instance) {
	if len(ins) == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.beginMutation()
	st.instances = append(st.instances, ins...)
	p := groupByClass(ins)
	for g, id := range p.order {
		list := p.parts[g]
		old, seen := st.byClass[id]
		if !seen {
			st.addClass(id, list[0].Key)
		}
		if len(old) > 0 {
			// The class already held instances: append, as Add would have.
			list = append(old, list...)
		}
		st.byClass[id] = list
	}
}

// beginMutation readies the staging area for a change, under st.mu.
func (st *Store) beginMutation() {
	if st.shared {
		// A sealed snapshot aliases the staging maps: clone before the
		// first mutation so its view stays frozen. Slices need no clone —
		// snapshots hold full-expression headers, so staging appends
		// never land inside a sealed view.
		st.byClass = cloneMap(st.byClass)
		st.classSegs = cloneMap(st.classSegs)
		st.byLeaf = cloneMap(st.byLeaf)
		st.shared = false
	}
	st.snap.Store(nil)
	st.contentID = "" // content changed; any prior address is stale
}

// addClass registers the class of key k, seen for the first time, in every
// index but byClass, which the caller fills.
func (st *Store) addClass(id string, k Key) {
	st.classes = append(st.classes, id)
	names := make([]string, len(k.Segs))
	for i, seg := range k.Segs {
		names[i] = seg.Name
	}
	st.classSegs[id] = names
	leaf := k.Leaf()
	st.byLeaf[leaf] = append(st.byLeaf[leaf], id)
}

func cloneMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Snapshot seals the staging area into an immutable view, building the
// class-path trie and a fresh discovery cache, and returns it. Sealing
// is idempotent until the next mutation: repeated calls return the same
// pointer via one atomic load.
func (st *Store) Snapshot() *Snapshot {
	if sn := st.snap.Load(); sn != nil {
		return sn
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sn := st.snap.Load(); sn != nil {
		return sn
	}
	sn := &Snapshot{
		instances: st.instances[:len(st.instances):len(st.instances)],
		byClass:   st.byClass,
		classes:   st.classes[:len(st.classes):len(st.classes)],
		classSegs: st.classSegs,
		byLeaf:    st.byLeaf,
		trie:      buildTrie(st.classes, st.classSegs),
		stats:     st.Stats,
		contentID: st.contentID,
	}
	st.snap.Store(sn)
	st.shared = true
	return sn
}

// SetContentID records a content address for the store's current
// contents: a digest of the exact bytes the instances were parsed from.
// The address is sealed into subsequent snapshots (dropping an existing
// seal so the next Snapshot carries it) and cleared by any mutation.
//
// Contract: callers must guarantee that two stores given the same
// non-empty ID hold identical instance sequences — Snapshot.Diff trusts
// equal IDs to mean an empty delta without walking a single key. The
// ingest layer derives IDs from source bytes (name, format, scope,
// payload), which satisfies the contract because parsing is
// deterministic.
func (st *Store) SetContentID(id string) {
	st.mu.Lock()
	st.contentID = id
	st.snap.Store(nil) // shared stays true: an old snapshot may live on
	st.mu.Unlock()
}

// Len returns the number of instances in the store.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.instances)
}

// Instances returns all instances in load order. The slice is shared;
// callers must not modify it.
func (st *Store) Instances() []*Instance { return st.Snapshot().Instances() }

// Classes returns all class paths (dotted display form) in load order.
func (st *Store) Classes() []string { return st.Snapshot().Classes() }

// ClassInstances returns the instances of one class; see
// Snapshot.ClassInstances.
func (st *Store) ClassInstances(classPath string) []*Instance {
	return st.Snapshot().ClassInstances(classPath)
}

// classSep separates segment names inside a class ID. Names read from a
// document never hold it (AppendKey and CheckName refuse it), so a class
// ID names exactly one sequence of segment names, which Delta relies on.
const classSep = '\x00'

// classID builds the unambiguous class identity of a key.
func classID(k Key) string { return joinNames(k, classSep) }

func displayClass(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		if id[i] == 0 {
			out = append(out, '.')
			continue
		}
		out = append(out, id[i])
	}
	return string(out)
}

func hasClassSep(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == classSep {
			return true
		}
	}
	return false
}

// Discover finds all instances matching the pattern on the current
// snapshot, sealing one first if the store changed. The returned slice
// is owned by the caller; see Snapshot.Discover.
func (st *Store) Discover(p Pattern) []*Instance {
	return st.Snapshot().Discover(p)
}

// DiscoverNaive is the paper's initial discovery implementation, kept for
// the §5.2 ablation benchmark; see Snapshot.DiscoverNaive.
func (st *Store) DiscoverNaive(p Pattern) []*Instance {
	return st.Snapshot().DiscoverNaive(p)
}

// copyResult hands a discovery result to the caller to own; the cache
// keeps the canonical slice.
func copyResult(ins []*Instance) []*Instance {
	if ins == nil {
		return nil
	}
	out := make([]*Instance, len(ins))
	copy(out, ins)
	return out
}

// ResetStats zeroes the discovery counters.
func (st *Store) ResetStats() { st.Stats.reset() }

// InvalidateCache clears the current snapshot's discovery cache in
// place. Benchmarks use it to measure cold discovery; the corpus
// generators use it after mutating instance values directly (the sealed
// indexes key on instance *keys*, so value edits only invalidate cached
// result slices, not the trie).
func (st *Store) InvalidateCache() {
	if sn := st.snap.Load(); sn != nil {
		sn.cache.reset()
	}
}

func hasGlob(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '*' {
			return true
		}
	}
	return false
}

// trieNode is a node in the class-path trie. Children are keyed by exact
// segment name; wildcard pattern segments fan out over all children.
// Nodes are immutable once their snapshot is sealed.
type trieNode struct {
	children map[string]*trieNode
	// classPath is nonempty when a class terminates at this node.
	classPath string
}

func newTrieNode() *trieNode {
	return &trieNode{children: make(map[string]*trieNode)}
}

// buildTrie builds the class-path trie for a seal.
func buildTrie(classes []string, classSegs map[string][]string) *trieNode {
	root := newTrieNode()
	for _, cp := range classes {
		node := root
		for _, name := range classSegs[cp] {
			child, ok := node.children[name]
			if !ok {
				child = newTrieNode()
				node.children[name] = child
			}
			node = child
		}
		node.classPath = cp
	}
	return root
}

// match descends the trie along the pattern segments, collecting class
// paths that terminate exactly at pattern length.
func (n *trieNode) match(segs []PatSeg, depth int, out *[]string) {
	if depth == len(segs) {
		if n.classPath != "" {
			*out = append(*out, n.classPath)
		}
		return
	}
	name := segs[depth].Name
	if !hasGlob(name) {
		if child, ok := n.children[name]; ok {
			child.match(segs, depth+1, out)
		}
		return
	}
	// Wildcard segment: try all children with matching names, in sorted
	// order for deterministic results.
	names := make([]string, 0, len(n.children))
	for cn := range n.children {
		if Glob(name, cn) {
			names = append(names, cn)
		}
	}
	sort.Strings(names)
	for _, cn := range names {
		n.children[cn].match(segs, depth+1, out)
	}
}

// partition is a batch of instances grouped by class: order lists the
// class IDs in first-appearance order and parts[g] the instances of
// class order[g], in their original order.
type partition struct {
	order []string
	parts [][]*Instance
}

// groupByClass partitions instances by class ID in one pass over ins:
// each ID is rendered into a reused scratch and a string is built per
// distinct class, not per instance.
func groupByClass(ins []*Instance) *partition {
	p := &partition{}
	index := make(map[string]int)
	of := make([]int32, len(ins)) // class number of each instance
	var sizes []int
	var scratch [renderScratch]byte
	for i, in := range ins {
		id := appendNames(scratch[:0], in.Key, classSep)
		g, ok := index[string(id)]
		if !ok {
			g = len(p.order)
			p.order = append(p.order, string(id))
			index[p.order[g]] = g
			sizes = append(sizes, 0)
		}
		of[i] = int32(g)
		sizes[g]++
	}
	// One backing array carved into per-class slices, each clipped so an
	// append to one class cannot run into the next.
	backing := make([]*Instance, len(ins))
	p.parts = make([][]*Instance, len(sizes))
	off := 0
	for g, size := range sizes {
		p.parts[g] = backing[off : off : off+size]
		off += size
	}
	for i, in := range ins {
		p.parts[of[i]] = append(p.parts[of[i]], in)
	}
	return p
}
