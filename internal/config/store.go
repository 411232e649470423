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

	// The instances in load order: n of them, in instances, or in lazy
	// while the store holds one adopted partition and nothing else.
	instances []*Instance
	lazy      *loadOrder
	n         int

	idx   *classIndex   // the classes, load order
	lists [][]*Instance // lists[g]: the instances of class g, load order

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
	st.ownInstances()
	st.instances = append(st.instances, in)
	st.n++
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
// store copies what it later writes to. A re-valued partition's load-order
// list (Revalue) is not built until something asks for it.
func (st *Store) AddPartition(p *Partition) {
	if p.n == 0 {
		return
	}
	st.add(p, false)
}

// add inserts p; copyIns says that p.ins is not p's to lend.
func (st *Store) add(p *Partition, copyIns bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.snap.Store(nil) // the staging area changes: unseal it
	if st.n == 0 {
		if copyIns {
			st.instances = slices.Clone(p.order.get())
		} else {
			st.lazy = p.order
		}
		st.n = p.n
		st.idx, st.lists = p.idx, p.parts
		st.idxShared, st.listsShared = true, true
		return
	}
	st.ownInstances()
	st.instances = append(st.instances, p.order.get()...)
	st.n += p.n
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

// ownInstances makes the load-order list the store's own to append to,
// under st.mu: an adopted partition's is clipped, so an append copies it.
func (st *Store) ownInstances() {
	if st.lazy != nil {
		st.instances = slices.Clip(st.lazy.get())
		st.lazy = nil
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
		lazy:      st.lazy,
		n:         st.n,
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
	return st.n
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
// first-appearance order, segment names, leaf index, trie) and each
// class's instances in batch order. A store that adopts it
// (AddPartition) shares all of it, and a lineage keeps a full parse's
// partition so that a delta re-parse of the same document (Revalue)
// reuses everything but the classes it re-valued. A partition is
// immutable.
type Partition struct {
	n     int        // instances in the batch
	order *loadOrder // the batch, load order: list
	list  loadOrder
	idx   *classIndex
	parts [][]*Instance // parts[g]: the instances of class g, clipped
}

// A Change re-values one instance of a batch: In, which has the key of
// the batch's instance at position I and another value, replaces it.
type Change struct {
	I  int
	In *Instance
}

// loadOrder is a batch's instances in load order, clipped, or how to
// build them: another batch's with some instances replaced
// (Partition.Revalue), built the first time they are asked for. Safe for
// concurrent use.
type loadOrder struct {
	once    sync.Once
	ins     []*Instance
	from    *loadOrder
	changes []Change
}

// get returns the batch, building it on the first call.
func (o *loadOrder) get() []*Instance {
	o.once.Do(func() {
		if o.from == nil {
			return
		}
		ins := slices.Clone(o.from.get())
		for _, c := range o.changes {
			ins[c.I] = c.In
		}
		o.ins, o.from, o.changes = slices.Clip(ins), nil, nil
	})
	return o.ins
}

// Len returns the number of instances in the batch.
func (p *Partition) Len() int { return p.n }

// Instances returns the batch in load order, building it first when p is
// a re-valued partition nothing has asked yet. The slice is shared;
// callers must not modify it.
func (p *Partition) Instances() []*Instance { return p.order.get() }

// NewPartition partitions ins by class: it classifies each instance by
// its class ID, rendered into a reused scratch and looked up without a
// copy, so a string is built per distinct class, not per instance, and
// then sorts them as NewPartitionOf does. The partition keeps ins, so
// nothing may write to it afterwards; its instances must be distinct
// pointers, as a parse's are.
func NewPartition(ins []*Instance) *Partition {
	idx := newClassIndex()
	of := make([]int32, len(ins))
	var scratch [renderScratch]byte
	for i, in := range ins {
		id := appendNames(scratch[:0], in.Key, classSep)
		g, ok := idx.num[string(id)]
		if !ok {
			g = idx.add(string(id), segNames(in.Key))
		}
		of[i] = g
	}
	return sortPartition(ins, [][]int32{of}, idx)
}

// NewPartitionOf partitions ins by classes the caller has already
// decided, as a scan that numbers them does (driver.ParsePartition):
// the chunks of of, end to end, hold the class of each instance of ins
// — a scan numbers them slab by slab — and classes[g] is the segment
// names of class g, numbered in the order of the first instance of
// each. It builds what NewPartition builds from ins, with one class ID
// rendered per class, and keeps ins and the names.
func NewPartitionOf(ins []*Instance, of [][]int32, classes [][]string) *Partition {
	idx := newClassIndex()
	for _, names := range classes {
		idx.add(strings.Join(names, string(classSep)), names)
	}
	return sortPartition(ins, of, idx)
}

func newClassIndex() *classIndex {
	return &classIndex{num: make(map[string]int32), leaf: make(map[string][]string)}
}

// sortPartition groups ins by their class numbers, the chunks of of end
// to end, with one counting sort: one backing array carved into
// per-class slices, each clipped so an append to one class cannot run
// into the next, filled in batch order.
func sortPartition(ins []*Instance, of [][]int32, idx *classIndex) *Partition {
	p := &Partition{n: len(ins), list: loadOrder{ins: slices.Clip(ins)}, idx: idx}
	p.order = &p.list
	at := make([]int, len(idx.ids)) // at[g]: class g's size, then its next slot
	for _, chunk := range of {
		for _, g := range chunk {
			at[g]++
		}
	}
	backing := make([]*Instance, len(ins))
	p.parts = make([][]*Instance, len(at))
	off := 0
	for g, size := range at {
		p.parts[g] = backing[off : off+size : off+size]
		at[g] = off
		off += size
	}
	i := 0
	for _, chunk := range of {
		for _, g := range chunk {
			backing[at[g]] = ins[i]
			at[g]++
			i++
		}
	}
	return p
}

// Revalue returns the partition of p's batch with changes applied, in
// increasing position order — what a delta re-parse of p's document
// returns (driver.Reparser). The class index and every class without a
// change are p's; a class with one is copied, the new instances in the
// old ones' slots. That costs the changed classes' sizes; the new batch's
// load-order list is built only if something asks for it (Instances,
// Snapshot.Instances, naive discovery). No change returns p.
func (p *Partition) Revalue(changes []Change) *Partition {
	if len(changes) == 0 {
		return p
	}
	ins := p.order.get()
	out := &Partition{n: p.n, list: loadOrder{from: p.order, changes: changes}, idx: p.idx, parts: slices.Clone(p.parts)}
	out.order = &out.list
	// Each copied class, and where in it its next change is sought; past
	// a few classes, a map finds them.
	type copied struct {
		g    int32
		next int
	}
	var stack [8]copied
	classes := stack[:0]
	var index map[int32]int
	var scratch [renderScratch]byte // a changed instance's class ID, to look it up
	for k, c := range changes {
		if c.I < 0 || c.I >= p.n || (k > 0 && c.I <= changes[k-1].I) {
			panic("config: Revalue of changes out of order or out of the batch")
		}
		was := ins[c.I]
		g := p.idx.num[string(appendNames(scratch[:0], was.Key, classSep))]
		at, ok := index[g]
		if index == nil {
			at = slices.IndexFunc(classes, func(cc copied) bool { return cc.g == g })
			ok = at >= 0
		}
		if !ok {
			out.parts[g] = slices.Clip(slices.Clone(p.parts[g]))
			classes = append(classes, copied{g: g})
			at = len(classes) - 1
			if index != nil || len(classes) > len(stack) {
				if index == nil {
					index = make(map[int32]int)
					for i, cc := range classes {
						index[cc.g] = i
					}
				}
				index[g] = at
			}
		}
		// The class lists its instances in batch order, so the slot of
		// position c.I lies after the previous change's.
		list, j := out.parts[g], classes[at].next
		for list[j] != was {
			j++
		}
		list[j] = c.In
		classes[at].next = j + 1
	}
	return out
}
