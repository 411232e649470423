package config

// Snapshot diffing: the substrate for incremental validation. Two sealed
// snapshots are compared class by class, producing a Delta that can answer
// "does any changed key match this discovery pattern?" — the question the
// engine asks per specification footprint to decide re-run vs reuse.
//
// The comparison exploits the store's copy-on-write sealing: successive
// snapshots of one store share the per-class instance slices of every
// class untouched between seals, so those classes are skipped by slice
// identity without looking at a single instance. Snapshots of unrelated
// stores (a watch round builds a fresh store per reload) share nothing:
// when they hold the same keys in the same load order — two parses of
// nearly the same content — one sequential pass finds the few classes
// with a changed value, and otherwise every class whose instance lists
// differ is recorded.
//
// Nothing is rendered per key up front. A footprint pattern that constrains
// no instance name or ordinal matches a class's keys exactly when it
// matches the class's segment names, so for it the delta only has to prove
// that a candidate class holds some changed key, which a positional walk
// over the class's two instance lists does without allocating. Only a
// constrained pattern, a reordered class, or a caller asking for the keys
// themselves (Len, Keys) materialises a class's key lists, once.

// Delta is the set of key-level changes from an old snapshot to a new
// one, computed lazily per class. It is built once by Diff and then
// memoises what it proves; use it from a single goroutine (the engine
// partitions specs before fanning out).
type Delta struct {
	// classes holds every class whose instance lists are not provably
	// identical, in the new snapshot's class order and then the removed
	// classes in the old snapshot's order.
	classes []classDelta

	// Overlap index over the recorded classes: exact-leaf and
	// segment-count buckets mirror Pattern.MatchKey's two matching regimes
	// (one-segment patterns match by leaf, multi-segment patterns by full
	// path). Each bucket is a chain through classDelta.nextLeaf/nextLen of
	// 1-based class positions; 0 ends it.
	byLeaf map[string]int32
	byLen  map[int]int32
	memo   map[string]bool // Pattern.key -> overlap verdict
}

// classDelta is one recorded class: its two instance lists (either may be
// nil when the class was added or removed wholesale), its segment names,
// and what has been proven about it so far.
type classDelta struct {
	old, new []*Instance
	names    []string

	nextLeaf, nextLen int32

	proof int8      // 0 unproven, 1 holds a changed key, -1 holds none
	keys  *keyLists // materialised on demand
}

// keyLists is the key-level change set of one class, each changed key
// once: new keys in the new list's order, then removed keys in the old
// list's order, modified keys as the new list meets them.
type keyLists struct {
	added, removed, modified []Key
}

// Diff computes the changes from old to the receiver. A nil old snapshot
// yields a delta with every key added.
func (sn *Snapshot) Diff(old *Snapshot) Delta {
	d := Delta{}
	if old == sn {
		return d
	}
	// When the load-order pass finds both snapshots holding the same keys
	// in the same order, every class does too, and only a class with a
	// re-valued instance can hold a change: just those are recorded, still
	// in class order, so the delta lists exactly what the full walk would.
	// Two snapshots that share a class index — stores built from one
	// partition and its re-valued copies — need no such pass: a class's
	// two lists are one slice unless a change copied it.
	var changed map[string]struct{}
	if old == nil || old.idx != sn.idx {
		changed = sn.loadOrderDiff(old)
	}
	for g, id := range sn.idx.ids {
		if _, ok := changed[id]; changed != nil && !ok {
			continue
		}
		oldIns := sn.oldClass(old, g)
		newIns := sn.lists[g]
		if sameInstanceSlice(oldIns, newIns) {
			// Copy-on-write fast path: the class's instance slice is the
			// very slice sealed into the old snapshot, so not one of its
			// instances was added, removed or re-valued in between.
			continue
		}
		d.classes = append(d.classes, classDelta{old: oldIns, new: newIns, names: sn.idx.segs[g]})
	}
	if old != nil && old.idx != sn.idx {
		for g, id := range old.idx.ids {
			if _, ok := sn.idx.num[id]; !ok {
				d.classes = append(d.classes, classDelta{old: old.lists[g], names: old.idx.segs[g]})
			}
		}
	}
	d.index()
	return d
}

// oldClass returns old's instances of the receiver's class g: by number
// when both snapshots share one class index — a store and a later one
// built from the same partition — and by ID otherwise.
func (sn *Snapshot) oldClass(old *Snapshot, g int) []*Instance {
	switch {
	case old == nil:
		return nil
	case old.idx == sn.idx:
		return old.lists[g]
	}
	return old.class(sn.idx.ids[g])
}

// loadOrderDiff is the pass for two parses of nearly the same content: it
// walks both snapshots' instances once in load order — sequentially over
// the slabs the drivers carved them from, where the class walk hops from
// class to class — and returns the set of classes holding an instance
// whose value differs. It returns nil, the walk abandoned, when the
// snapshots differ in size or at the first position whose keys differ.
func (sn *Snapshot) loadOrderDiff(old *Snapshot) map[string]struct{} {
	if old == nil || sn.n != old.n || len(sn.idx.ids) != len(old.idx.ids) {
		return nil
	}
	changed := make(map[string]struct{})
	var scratch [renderScratch]byte
	olds := old.Instances()
	for i, in := range sn.Instances() {
		was := olds[i]
		if was == in {
			continue
		}
		if !sameKey(was.Key, in.Key) {
			return nil
		}
		if was.Value != in.Value {
			id := appendNames(scratch[:0], in.Key, classSep)
			if _, ok := changed[string(id)]; !ok {
				changed[string(id)] = struct{}{}
			}
		}
	}
	return changed
}

// sameInstanceSlice reports whether two per-class slices are the same
// sealed slice: equal length and the same backing array start. Sealed
// snapshot slices are full-expression headers, so identity here implies
// element-for-element identity.
func sameInstanceSlice(a, b []*Instance) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// index chains the recorded classes into the leaf and length buckets.
func (d *Delta) index() {
	if len(d.classes) == 0 {
		return
	}
	d.byLeaf = make(map[string]int32, len(d.classes))
	d.byLen = make(map[int]int32, 8)
	for i := range d.classes {
		c := &d.classes[i]
		if len(c.names) == 0 {
			continue
		}
		leaf := c.names[len(c.names)-1]
		c.nextLeaf, d.byLeaf[leaf] = d.byLeaf[leaf], int32(i+1)
		c.nextLen, d.byLen[len(c.names)] = d.byLen[len(c.names)], int32(i+1)
	}
}

// changed reports whether the class holds any changed key, proving it
// without rendering a key wherever the lists allow.
func (c *classDelta) changed() bool {
	if c.proof == 0 {
		c.proof = -1
		if c.prove() {
			c.proof = 1
		}
	}
	return c.proof > 0
}

func (c *classDelta) prove() bool {
	if len(c.old) != len(c.new) {
		// A key whose occurrences differ in number has a different value
		// sequence, and a class that grew or shrank has such a key.
		return true
	}
	for i, in := range c.new {
		was := c.old[i]
		if sameKey(was.Key, in.Key) {
			if was.Value != in.Value {
				// Every position before i holds the same key and value on
				// both sides, so this is the same occurrence of the key on
				// both sides, re-valued.
				return true
			}
			continue
		}
		// The first misaligned key: new, unless the old list holds it
		// somewhere (a reorder), which only the key-level walk settles.
		for _, o := range c.old {
			if sameKey(o.Key, in.Key) {
				k := c.keyLists()
				return len(k.added)+len(k.removed)+len(k.modified) > 0
			}
		}
		return true
	}
	return false
}

// keyLists materialises the class's key-level change set, once.
func (c *classDelta) keyLists() *keyLists {
	if c.keys == nil {
		c.keys = new(keyLists)
		diffClass(c.old, c.new, c.keys)
	}
	return c.keys
}

// diffClass compares one class's instance lists. Either side may be nil
// (class added or removed wholesale).
func diffClass(oldIns, newIns []*Instance, d *keyLists) {
	// Aligned fast path: a rebuilt store that reloads the same sources
	// yields the same keys in the same order, so a value-churn round
	// reduces to a positional scan with no map allocation.
	if len(oldIns) == len(newIns) {
		aligned := true
		for i := range newIns {
			if !sameKey(oldIns[i].Key, newIns[i].Key) {
				aligned = false
				break
			}
		}
		if aligned {
			// A key appearing more than once (duplicate keys in a source)
			// must still be listed once, so dedupe against the entries this
			// class already emitted; churn per class is small, so the scan
			// beats allocating a set.
			for i := range newIns {
				if oldIns[i].Value == newIns[i].Value {
					continue
				}
				dup := false
				for _, m := range d.modified {
					if sameKey(m, newIns[i].Key) {
						dup = true
						break
					}
				}
				if !dup {
					d.modified = append(d.modified, newIns[i].Key)
				}
			}
			return
		}
	}
	// General path: compare the per-key value sequences. A key may appear
	// more than once (duplicate keys in a source file); the whole value
	// sequence must match for the key to count as unchanged.
	type entry struct {
		key  Key
		vals []string
	}
	oldBy := make(map[string]*entry, len(oldIns))
	var oldOrder []string
	for _, in := range oldIns {
		ks := in.Key.String()
		e, ok := oldBy[ks]
		if !ok {
			e = &entry{key: in.Key}
			oldBy[ks] = e
			oldOrder = append(oldOrder, ks)
		}
		e.vals = append(e.vals, in.Value)
	}
	newBy := make(map[string]*entry, len(newIns))
	var newOrder []string
	for _, in := range newIns {
		ks := in.Key.String()
		e, ok := newBy[ks]
		if !ok {
			e = &entry{key: in.Key}
			newBy[ks] = e
			newOrder = append(newOrder, ks)
		}
		e.vals = append(e.vals, in.Value)
	}
	for _, ks := range newOrder {
		ne := newBy[ks]
		oe, ok := oldBy[ks]
		if !ok {
			d.added = append(d.added, ne.key)
			continue
		}
		if !sameValues(oe.vals, ne.vals) {
			d.modified = append(d.modified, ne.key)
		}
	}
	for _, ks := range oldOrder {
		if _, ok := newBy[ks]; !ok {
			d.removed = append(d.removed, oldBy[ks].key)
		}
	}
}

func sameKey(a, b Key) bool {
	if len(a.Segs) != len(b.Segs) {
		return false
	}
	for i := range a.Segs {
		if a.Segs[i] != b.Segs[i] {
			return false
		}
	}
	return true
}

func sameValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Keys lists every changed key once, by kind; each list runs through the
// recorded classes in order. It materialises every class's key lists.
func (d *Delta) Keys() (added, removed, modified []Key) {
	for i := range d.classes {
		k := d.classes[i].keyLists()
		added = append(added, k.added...)
		removed = append(removed, k.removed...)
		modified = append(modified, k.modified...)
	}
	return added, removed, modified
}

// Len returns the number of changed keys. It materialises every class's
// key lists.
func (d *Delta) Len() int {
	n := 0
	for i := range d.classes {
		k := d.classes[i].keyLists()
		n += len(k.added) + len(k.removed) + len(k.modified)
	}
	return n
}

// Empty reports whether the snapshots hold the same keys and values.
func (d *Delta) Empty() bool {
	for i := range d.classes {
		if d.classes[i].changed() {
			return false
		}
	}
	return true
}

// Overlaps reports whether any changed key matches the discovery
// pattern, under the exact semantics of Pattern.MatchKey. Patterns with
// unsubstituted variables match nothing — callers deal with those by
// marking the owning spec dynamic. Verdicts are memoized per pattern
// string once a candidate class exists; the memo makes Overlaps
// single-goroutine only.
func (d *Delta) Overlaps(p Pattern) bool {
	if len(d.classes) == 0 || len(p.Segs) == 0 || p.HasVars() {
		return false
	}
	// The candidates, as 1-based positions: the leaf's bucket when the leaf
	// is exact, else the pattern length's bucket, else — a one-segment
	// glob — every class.
	var head int32
	var next func(i int32) int32
	switch last := p.Segs[len(p.Segs)-1].Name; {
	case !hasGlob(last):
		head, next = d.byLeaf[last], func(i int32) int32 { return d.classes[i-1].nextLeaf }
	case len(p.Segs) > 1:
		head, next = d.byLen[len(p.Segs)], func(i int32) int32 { return d.classes[i-1].nextLen }
	default:
		head, next = 1, func(i int32) int32 {
			if int(i) == len(d.classes) {
				return 0
			}
			return i + 1
		}
	}
	if head == 0 {
		return false
	}
	ps := p.key()
	if v, ok := d.memo[ps]; ok {
		return v
	}
	free := unconstrained(p)
	v := false
	for i := head; i != 0 && !v; i = next(i) {
		v = d.classes[i-1].overlaps(p, free)
	}
	if d.memo == nil {
		d.memo = make(map[string]bool)
	}
	d.memo[ps] = v
	return v
}

// OverlapsAny reports whether any pattern overlaps the delta.
func (d *Delta) OverlapsAny(pats []Pattern) bool {
	for _, p := range pats {
		if d.Overlaps(p) {
			return true
		}
	}
	return false
}

// overlaps reports whether a changed key of the class matches p. free
// says that p constrains no instance name or ordinal, so that a key
// matches exactly when its class's names do.
func (c *classDelta) overlaps(p Pattern, free bool) bool {
	if !p.MatchClass(c.names) {
		return false
	}
	if free {
		return c.changed()
	}
	k := c.keyLists()
	for _, keys := range [...][]Key{k.added, k.removed, k.modified} {
		for _, key := range keys {
			if p.MatchKey(key) {
				return true
			}
		}
	}
	return false
}

// unconstrained reports whether the segments MatchKey reads constrain no
// instance name (empty, or nothing but '*') and no ordinal.
func unconstrained(p Pattern) bool {
	for _, s := range p.Segs {
		if s.Index != 0 {
			return false
		}
		for i := 0; i < len(s.Inst); i++ {
			if s.Inst[i] != '*' {
				return false
			}
		}
	}
	return true
}
