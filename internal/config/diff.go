package config

// Snapshot diffing: the substrate for incremental validation. Two sealed
// snapshots are compared key by key, producing a Delta that can answer
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
// with a changed value, and otherwise a per-class key walk compares them,
// which itself fast-paths positionally aligned keys.

// Delta is the set of key-level changes from an old snapshot to a new
// one. Added, Removed and Modified list each changed key once, in the
// deterministic order the walk encounters them (new snapshot's load
// order, then removed keys in the old snapshot's order).
type Delta struct {
	Added    []Key
	Removed  []Key
	Modified []Key

	// Overlap index over all changed keys: exact-leaf and segment-count
	// buckets mirror Pattern.MatchKey's two matching regimes (one-segment
	// patterns match by leaf, multi-segment patterns by full path).
	keys   []Key
	byLeaf map[string][]int
	byLen  map[int][]int
	memo   map[string]bool // pattern string -> overlap verdict
}

// Len returns the number of changed keys.
func (d *Delta) Len() int { return len(d.keys) }

// Empty reports whether the snapshots were identical.
func (d *Delta) Empty() bool { return len(d.keys) == 0 }

// Diff computes the key-level changes from old to the receiver. A nil
// old snapshot yields a delta with every key added. The result is built
// once and then read-only except for its internal pattern memo; use from
// a single goroutine (the engine partitions specs before fanning out).
func (sn *Snapshot) Diff(old *Snapshot) Delta {
	d := Delta{}
	if old == sn {
		d.index()
		return d
	}
	if old != nil && sn.contentID != "" && sn.contentID == old.contentID {
		// Content-address fast path: both snapshots were sealed from the
		// same bytes (Store.SetContentID contract), so the delta is empty
		// even when the snapshots come from unrelated stores — the case a
		// service hits when a payload repeats after its cached store was
		// evicted.
		d.index()
		return d
	}
	// When the load-order pass finds both snapshots holding the same keys
	// in the same order, every class does too, and only a class with a
	// re-valued instance can contribute: the walk visits just those, still
	// in class order, so the delta lists exactly what it always did.
	changed := sn.loadOrderDiff(old)
	for _, id := range sn.classes {
		if _, ok := changed[id]; changed != nil && !ok {
			continue
		}
		var oldIns []*Instance
		if old != nil {
			oldIns = old.byClass[id]
		}
		newIns := sn.byClass[id]
		if sameInstanceSlice(oldIns, newIns) {
			// Copy-on-write fast path: the class's instance slice is the
			// very slice sealed into the old snapshot, so not one of its
			// instances was added, removed or re-valued in between.
			continue
		}
		diffClass(oldIns, newIns, &d)
	}
	if old != nil {
		for _, id := range old.classes {
			if _, ok := sn.byClass[id]; !ok {
				diffClass(old.byClass[id], nil, &d)
			}
		}
	}
	d.index()
	return d
}

// loadOrderDiff is the pass for two parses of nearly the same content: it
// walks both snapshots' instances once in load order — sequentially over
// the slabs the drivers carved them from, where the class walk hops from
// class to class — and returns the set of classes holding an instance
// whose value differs. It returns nil, the walk abandoned, when the
// snapshots differ in size or at the first position whose keys differ.
func (sn *Snapshot) loadOrderDiff(old *Snapshot) map[string]struct{} {
	if old == nil || len(sn.instances) != len(old.instances) || len(sn.classes) != len(old.classes) {
		return nil
	}
	changed := make(map[string]struct{})
	var scratch [renderScratch]byte
	for i, in := range sn.instances {
		was := old.instances[i]
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

// diffClass compares one class's instance lists. Either side may be nil
// (class added or removed wholesale).
func diffClass(oldIns, newIns []*Instance, d *Delta) {
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
			start := len(d.Modified)
			for i := range newIns {
				if oldIns[i].Value == newIns[i].Value {
					continue
				}
				dup := false
				for _, m := range d.Modified[start:] {
					if sameKey(m, newIns[i].Key) {
						dup = true
						break
					}
				}
				if !dup {
					d.Modified = append(d.Modified, newIns[i].Key)
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
			d.Added = append(d.Added, ne.key)
			continue
		}
		if !sameValues(oe.vals, ne.vals) {
			d.Modified = append(d.Modified, ne.key)
		}
	}
	for _, ks := range oldOrder {
		if _, ok := newBy[ks]; !ok {
			d.Removed = append(d.Removed, oldBy[ks].key)
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

// index builds the overlap buckets over every changed key.
func (d *Delta) index() {
	n := len(d.Added) + len(d.Removed) + len(d.Modified)
	d.keys = make([]Key, 0, n)
	d.keys = append(d.keys, d.Added...)
	d.keys = append(d.keys, d.Removed...)
	d.keys = append(d.keys, d.Modified...)
	d.byLeaf = make(map[string][]int, n)
	d.byLen = make(map[int][]int, 8)
	for i, k := range d.keys {
		if len(k.Segs) == 0 {
			continue
		}
		leaf := k.Segs[len(k.Segs)-1].Name
		d.byLeaf[leaf] = append(d.byLeaf[leaf], i)
		d.byLen[len(k.Segs)] = append(d.byLen[len(k.Segs)], i)
	}
	d.memo = make(map[string]bool)
}

// Overlaps reports whether any changed key matches the discovery
// pattern, under the exact semantics of Pattern.MatchKey. Patterns with
// unsubstituted variables match nothing — callers deal with those by
// marking the owning spec dynamic. Verdicts are memoized per pattern
// string; the memo makes Overlaps single-goroutine only.
func (d *Delta) Overlaps(p Pattern) bool {
	if len(d.keys) == 0 || len(p.Segs) == 0 || p.HasVars() {
		return false
	}
	ps := p.String()
	if v, ok := d.memo[ps]; ok {
		return v
	}
	v := d.overlaps(p)
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

func (d *Delta) overlaps(p Pattern) bool {
	if len(p.Segs) == 1 {
		// One-segment patterns match by leaf across all depths.
		s := p.Segs[0]
		if !hasGlob(s.Name) {
			for _, i := range d.byLeaf[s.Name] {
				k := d.keys[i]
				if s.matchSeg(k.Segs[len(k.Segs)-1]) {
					return true
				}
			}
			return false
		}
		for _, k := range d.keys {
			if p.MatchKey(k) {
				return true
			}
		}
		return false
	}
	// Multi-segment patterns match positionally, so the key's leaf must
	// match the pattern's last segment: a non-glob leaf narrows the scan
	// to its (small) leaf bucket instead of every changed key of the
	// right depth — the difference between microseconds and milliseconds
	// when a large delta meets a large footprint index.
	if last := p.Segs[len(p.Segs)-1]; !hasGlob(last.Name) {
		for _, i := range d.byLeaf[last.Name] {
			k := d.keys[i]
			if len(k.Segs) == len(p.Segs) && p.MatchKey(k) {
				return true
			}
		}
		return false
	}
	for _, i := range d.byLen[len(p.Segs)] {
		if p.MatchKey(d.keys[i]) {
			return true
		}
	}
	return false
}
