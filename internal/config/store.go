package config

import (
	"slices"
	"sort"
	"strings"
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
// (Add/AddAll/AddPartition) build into a mutable staging area under the
// store lock; Snapshot seals the staging area into an immutable Snapshot
// whose indexes are read with no locking. Discover routes through the
// current snapshot. A sealed snapshot is never mutated — the first
// mutation after a seal copies what it writes (copy-on-write), so
// goroutines holding the old snapshot keep a consistent view. The Store
// is safe for concurrent use: Add may race with Discover, and each
// Discover sees either the pre- or post-Add world, never a torn one.
type Store struct {
	mu sync.Mutex // guards the staging area below and sealing

	instances []*Instance
	idx       *classIndex   // the classes, load order
	lists     [][]*Instance // lists[g]: the instances of class g, load order

	// idxShared and listsShared mark that idx, or the lists slice, may be
	// aliased — by a sealed snapshot or by the partition the store
	// adopted — so the next write to it must copy it first.
	idxShared, listsShared bool

	// snap is the current sealed snapshot, nil when the staging area has
	// changed since the last seal.
	snap atomic.Pointer[Snapshot]

	// Stats counts discovery work for the Figure 4 / §5.2 ablations.
	// Counters are atomic so parallel validation runs race-free; they
	// accumulate across snapshots. Allocated apart from the Store so
	// that a snapshot, which counts into them, holds no pointer back
	// into the store that holds it.
	Stats *DiscoveryStats
}

// classIndex is a class set: the class IDs in first-appearance order and
// what discovery looks them up by. Class g is ids[g] everywhere — in a
// partition's parts, a store's lists, a snapshot's. An index that is
// shared (sealed into a snapshot, or held by a partition) is never
// written again; a store that adds a class to it copies it first.
type classIndex struct {
	ids  []string            // class IDs, first-appearance order
	num  map[string]int32    // class ID -> its position in ids
	segs [][]string          // segment names, by class number
	leaf map[string][]string // leaf name -> class IDs, in ids order

	trieOnce sync.Once
	trie     *trieNode // the class-path trie, built at its first seal
}

// emptyIndex is the class index of a store that holds nothing yet.
var emptyIndex = &classIndex{}

// add appends class id, with segment names names, and returns its number.
func (x *classIndex) add(id string, names []string) int32 {
	g := int32(len(x.ids))
	x.ids = append(x.ids, id)
	x.num[id] = g
	x.segs = append(x.segs, names)
	leaf := names[len(names)-1]
	x.leaf[leaf] = append(x.leaf[leaf], id)
	return g
}

// clone returns a copy of x that can be added to without writing into x:
// every slice an append could extend in place is clipped.
func (x *classIndex) clone() *classIndex {
	out := &classIndex{
		ids:  slices.Clip(x.ids),
		num:  make(map[string]int32, len(x.num)),
		segs: slices.Clip(x.segs),
		leaf: make(map[string][]string, len(x.leaf)),
	}
	for id, g := range x.num {
		out.num[id] = g
	}
	for leaf, ids := range x.leaf {
		out.leaf[leaf] = slices.Clip(ids)
	}
	return out
}

// classTrie returns the index's class-path trie, building it the first
// time; the index must be shared by then, so the trie stays its own.
func (x *classIndex) classTrie() *trieNode {
	x.trieOnce.Do(func() { x.trie = buildTrie(x) })
	return x.trie
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{idx: emptyIndex, idxShared: true, Stats: new(DiscoveryStats)}
}

// Add inserts an instance into the store. The next Discover (or
// Snapshot) seals a fresh snapshot; readers holding an earlier snapshot
// are unaffected.
func (st *Store) Add(in *Instance) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.snap.Store(nil) // the staging area changes: unseal it
	st.instances = append(st.instances, in)
	id := classID(in.Key)
	g, seen := st.idx.num[id]
	if !seen {
		g = st.addClass(id, segNames(in.Key))
	}
	st.ownLists()
	st.lists[g] = append(st.lists[g], in)
}

// AddAll inserts a batch of instances, in order, as Add would one by one:
// it partitions the batch (NewPartition) and adds the partition. ins
// stays the caller's.
func (st *Store) AddAll(ins []*Instance) {
	if len(ins) == 0 {
		return
	}
	st.add(NewPartition(ins), true)
}

// AddPartition inserts a partitioned batch, in order, as AddAll would
// insert its instances. An empty store adopts the partition as it is —
// its instances, lists and class index — and allocates nothing; the
// store copies what it later writes to.
func (st *Store) AddPartition(p *Partition) {
	if len(p.ins) == 0 {
		return
	}
	st.add(p, false)
}

// add inserts p; copyIns says that p.ins is not p's to lend.
func (st *Store) add(p *Partition, copyIns bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.snap.Store(nil) // the staging area changes: unseal it
	if len(st.instances) == 0 {
		ins := p.ins
		if copyIns {
			ins = slices.Clone(ins)
		}
		st.instances = slices.Clip(ins)
		st.idx, st.lists = p.idx, p.parts
		st.idxShared, st.listsShared = true, true
		return
	}
	st.instances = append(st.instances, p.ins...)
	st.ownLists()
	for g, id := range p.idx.ids {
		list := p.parts[g]
		sg, seen := st.idx.num[id]
		if !seen {
			sg = st.addClass(id, p.idx.segs[g])
			st.lists[sg] = list // clipped: an append copies it
			continue
		}
		// The class already held instances: append, as Add would have.
		st.lists[sg] = append(st.lists[sg], list...)
	}
}

// ownLists makes the lists slice the store's own to write, under st.mu.
// The lists in it need no copy: a partition's are clipped, so an append
// copies one, and the store's own only grow past the length a sealed
// snapshot holds of them.
func (st *Store) ownLists() {
	if st.listsShared {
		st.lists = slices.Clone(st.lists)
		st.listsShared = false
	}
}

// addClass registers a class seen for the first time, with an empty
// list, and returns its number.
func (st *Store) addClass(id string, names []string) int32 {
	if st.idxShared {
		st.idx = st.idx.clone()
		st.idxShared = false
	}
	st.ownLists()
	st.lists = append(st.lists, nil)
	return st.idx.add(id, names)
}

// segNames returns the segment names of k.
func segNames(k Key) []string {
	names := make([]string, len(k.Segs))
	for i, seg := range k.Segs {
		names[i] = seg.Name
	}
	return names
}

// Snapshot seals the staging area into an immutable view, building the
// class-path trie (once per class index: a store that adopted a
// partition shares the partition's) and a fresh discovery cache, and
// returns it. Sealing is idempotent until the next mutation: repeated
// calls return the same pointer via one atomic load.
func (st *Store) Snapshot() *Snapshot {
	if sn := st.snap.Load(); sn != nil {
		return sn
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sn := st.snap.Load(); sn != nil {
		return sn
	}
	st.idxShared, st.listsShared = true, true
	sn := &Snapshot{
		instances: slices.Clip(st.instances),
		idx:       st.idx,
		lists:     slices.Clip(st.lists),
		trie:      st.idx.classTrie(),
		stats:     st.Stats,
	}
	st.snap.Store(sn)
	return sn
}

// SetContentID does nothing.
//
// Deprecated: a store no longer carries a content address, and
// Snapshot.Diff walks every pair of snapshots it is given. The result
// cache answers a byte-identical request before it is parsed.
func (st *Store) SetContentID(string) {}

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
	return strings.IndexByte(s, classSep) >= 0
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

// buildTrie builds the class-path trie of a class index.
func buildTrie(x *classIndex) *trieNode {
	root := newTrieNode()
	for g, cp := range x.ids {
		node := root
		for _, name := range x.segs[g] {
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

// Partition is a batch of instances grouped by class, in the form a
// store is built from: the batch, its class index (class IDs in
// first-appearance order, segment names, leaf index, trie), each class's
// instances in batch order, and each instance's class number. A store
// that adopts it (AddPartition) shares all of it, and a lineage keeps a
// full parse's partition so that a delta re-parse of the same document
// (Revalue) reuses everything but the classes it re-valued. A partition
// is immutable.
type Partition struct {
	ins   []*Instance
	idx   *classIndex
	parts [][]*Instance // parts[g]: the instances of class g, clipped
	of    []int32       // of[i]: the class number of ins[i]
}

// NewPartition partitions ins by class in one pass: each ID is rendered
// into a reused scratch and a string is built per distinct class, not per
// instance. The partition keeps ins, so nothing may write to it
// afterwards; its instances must be distinct pointers, as a parse's are.
func NewPartition(ins []*Instance) *Partition {
	p := &Partition{ins: ins, idx: &classIndex{num: make(map[string]int32), leaf: make(map[string][]string)}}
	p.of = make([]int32, len(ins))
	var sizes []int
	var scratch [renderScratch]byte
	for i, in := range ins {
		id := appendNames(scratch[:0], in.Key, classSep)
		g, ok := p.idx.num[string(id)]
		if !ok {
			g = p.idx.add(string(id), segNames(in.Key))
			sizes = append(sizes, 0)
		}
		p.of[i] = g
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
		p.parts[p.of[i]] = append(p.parts[p.of[i]], in)
	}
	return p
}

// Revalue returns the partition of ins, a batch holding p's keys in p's
// order where each instance is p's own at that position or a re-valued
// copy of it — what a delta re-parse of p's document returns
// (driver.Reparser). The class index and every class without a new
// instance are p's; a class with one is copied, the new instances in the
// old ones' slots. Beyond one pass comparing pointers, that costs the
// changed classes' sizes.
func (p *Partition) Revalue(ins []*Instance) *Partition {
	if len(ins) != len(p.ins) {
		panic("config: Revalue of a batch of another length")
	}
	out := &Partition{ins: ins, idx: p.idx, parts: p.parts, of: p.of}
	var from map[int32]int // a copied class -> where its next change is sought
	for i, in := range ins {
		was := p.ins[i]
		if in == was {
			continue
		}
		g := p.of[i]
		if from == nil {
			from = make(map[int32]int)
			out.parts = slices.Clone(p.parts)
		}
		j, copied := from[g]
		if !copied {
			out.parts[g] = slices.Clip(slices.Clone(p.parts[g]))
		}
		// The class lists its instances in batch order, so the slot of
		// position i lies after the previous change's.
		list := out.parts[g]
		for list[j] != was {
			j++
		}
		list[j] = in
		from[g] = j + 1
	}
	return out
}
