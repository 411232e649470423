package config

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// The store's build and the snapshot diff as they stood before the bulk
// build, the load-order pass and the lazy class-level Delta, kept verbatim
// as the oracles the new paths are held to.

// addLockedOracle is the one-instance insertion AddAll used to loop over,
// on the store's class-numbered layout.
func (st *Store) addLockedOracle(in *Instance) {
	if st.idxShared {
		x := &classIndex{num: make(map[string]int32), leaf: make(map[string][]string)}
		x.ids = append(x.ids, st.idx.ids...)
		x.segs = append(x.segs, st.idx.segs...)
		for id, g := range st.idx.num {
			x.num[id] = g
		}
		for leaf, ids := range st.idx.leaf {
			x.leaf[leaf] = append([]string(nil), ids...)
		}
		st.idx, st.idxShared = x, false
	}
	if st.listsShared {
		st.lists = append([][]*Instance(nil), st.lists...)
		for g := range st.lists {
			st.lists[g] = st.lists[g][:len(st.lists[g]):len(st.lists[g])]
		}
		st.listsShared = false
	}
	st.snap.Store(nil)
	st.instances = append(st.instances, in)
	cp := classID(in.Key)
	g, seen := st.idx.num[cp]
	if !seen {
		names := make([]string, len(in.Key.Segs))
		for i, seg := range in.Key.Segs {
			names[i] = seg.Name
		}
		g = int32(len(st.idx.ids))
		st.idx.ids = append(st.idx.ids, cp)
		st.idx.num[cp] = g
		st.idx.segs = append(st.idx.segs, names)
		leaf := in.Key.Leaf()
		st.idx.leaf[leaf] = append(st.idx.leaf[leaf], cp)
		st.lists = append(st.lists, nil)
	}
	st.lists[g] = append(st.lists[g], in)
}

func (st *Store) addAllOracle(ins []*Instance) {
	st.mu.Lock()
	for _, in := range ins {
		st.addLockedOracle(in)
	}
	st.mu.Unlock()
}

// diffOracle is Snapshot.Diff's class walk, with nothing in front of it.
func diffOracle(sn, old *Snapshot) eagerDelta {
	d := eagerDelta{}
	if old == sn {
		d.index()
		return d
	}
	for _, id := range sn.idx.ids {
		var oldIns []*Instance
		if old != nil {
			oldIns = old.class(id)
		}
		newIns := sn.class(id)
		if sameInstanceSlice(oldIns, newIns) {
			continue
		}
		eagerDiffClass(oldIns, newIns, &d)
	}
	if old != nil {
		for _, id := range old.idx.ids {
			if _, ok := sn.idx.num[id]; !ok {
				eagerDiffClass(old.class(id), nil, &d)
			}
		}
	}
	d.index()
	return d
}

// eagerDelta is the Delta that listed and indexed every changed key up
// front, and eagerDiff the Snapshot.Diff that built it: the oracle the
// lazy class-level Delta is held to, key list for key list and verdict for
// verdict.
type eagerDelta struct {
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
func (d *eagerDelta) Len() int { return len(d.keys) }

// Empty reports whether the snapshots were identical.
func (d *eagerDelta) Empty() bool { return len(d.keys) == 0 }

func eagerDiff(sn, old *Snapshot) eagerDelta {
	d := eagerDelta{}
	if old == sn {
		d.index()
		return d
	}
	// When the load-order pass finds both snapshots holding the same keys
	// in the same order, every class does too, and only a class with a
	// re-valued instance can contribute: the walk visits just those, still
	// in class order, so the delta lists exactly what it always did.
	changed := sn.loadOrderDiff(old)
	for _, id := range sn.idx.ids {
		if _, ok := changed[id]; changed != nil && !ok {
			continue
		}
		var oldIns []*Instance
		if old != nil {
			oldIns = old.class(id)
		}
		newIns := sn.class(id)
		if sameInstanceSlice(oldIns, newIns) {
			// Copy-on-write fast path: the class's instance slice is the
			// very slice sealed into the old snapshot, so not one of its
			// instances was added, removed or re-valued in between.
			continue
		}
		eagerDiffClass(oldIns, newIns, &d)
	}
	if old != nil {
		for _, id := range old.idx.ids {
			if _, ok := sn.idx.num[id]; !ok {
				eagerDiffClass(old.class(id), nil, &d)
			}
		}
	}
	d.index()
	return d
}

// eagerDiffClass compares one class's instance lists. Either side may be nil
// (class added or removed wholesale).
func eagerDiffClass(oldIns, newIns []*Instance, d *eagerDelta) {
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

// index builds the overlap buckets over every changed key.
func (d *eagerDelta) index() {
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
func (d *eagerDelta) Overlaps(p Pattern) bool {
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
func (d *eagerDelta) OverlapsAny(pats []Pattern) bool {
	for _, p := range pats {
		if d.Overlaps(p) {
			return true
		}
	}
	return false
}

func (d *eagerDelta) overlaps(p Pattern) bool {
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

// nestedInstances generates what a driver hands the store for a nested
// document: replicated scopes, so that the classes interleave in load
// order, a few duplicate keys, and keys whose renderings collide while
// their classes differ ("A::x" as one name against name A, instance x; a
// dotted name against two segments).
func nestedInstances(rng *rand.Rand, clouds, tenants, params int) []*Instance {
	var ins []*Instance
	add := func(v string, segs ...Seg) {
		ins = append(ins, &Instance{Key: Key{Segs: segs}, Value: v, Source: "gen"})
	}
	for c := 1; c <= clouds; c++ {
		cloud := Seg{Name: "Cloud", Inst: fmt.Sprintf("c%d", c), Index: c}
		add(fmt.Sprint(rng.Intn(100)), cloud, Seg{Name: "Region"})
		for t := 1; t <= tenants; t++ {
			tenant := Seg{Name: "Tenant", Inst: fmt.Sprintf("t%d", t), Index: t}
			for p := 0; p < params; p++ {
				leaf := Seg{Name: fmt.Sprintf("Param%d", p)}
				add(fmt.Sprint(rng.Intn(100)), cloud, tenant, leaf)
				if rng.Intn(20) == 0 { // a duplicate key
					add(fmt.Sprint(rng.Intn(100)), cloud, tenant, leaf)
				}
			}
		}
		add("x", Seg{Name: "Cloud", Inst: "x"}, Seg{Name: "Limit"})
		add("y", Seg{Name: "Cloud::x"}, Seg{Name: "Limit"})
		add("z", Seg{Name: "Cloud.Tenant"}, Seg{Name: "Param0"})
	}
	return ins
}

// cloneInstances copies the instances, so that two stores share nothing.
func cloneInstances(ins []*Instance) []*Instance {
	out := make([]*Instance, len(ins))
	for i, in := range ins {
		cp := *in
		cp.Key.Segs = append([]Seg(nil), in.Key.Segs...)
		out[i] = &cp
	}
	return out
}

func oraclePatterns(t *testing.T) []Pattern {
	t.Helper()
	var pats []Pattern
	for _, s := range []string{
		"Param0", "Param*", "Limit", "Region", "*", "NoSuch",
		"Cloud.Region", "Cloud.Tenant.Param1", "Cloud::c1.Tenant.Param2", "Cloud.Tenant::t2.Param0",
		"Cloud[2].Tenant[1].Param*", "Cloud.*.Param3", "Cloud::x.Limit", "*.Limit", "Extra.Knob", "Cloud.Tenant.Extra",
	} {
		p, err := ParsePattern(s)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, p)
	}
	return pats
}

// sameStoreIndexes compares everything a seal reads from the staging area.
func sameStoreIndexes(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if !reflect.DeepEqual(got.Classes(), want.Classes()) {
		t.Fatalf("%s: classes differ:\n bulk:   %q\n oracle: %q", label, got.Classes(), want.Classes())
	}
	if !reflect.DeepEqual(got.instances, want.instances) {
		t.Fatalf("%s: load order differs", label)
	}
	gx, wx := got.idx, want.idx
	if len(gx.num) != len(wx.num) || len(got.lists) != len(want.lists) {
		t.Fatalf("%s: %d/%d classes indexed, oracle %d/%d", label, len(gx.num), len(got.lists), len(wx.num), len(want.lists))
	}
	for id, wg := range wx.num {
		gg, ok := gx.num[id]
		if !ok {
			t.Fatalf("%s: class %q not indexed", label, id)
		}
		g, w := got.lists[gg], want.lists[wg]
		if len(g) != len(w) {
			t.Fatalf("%s: class %q holds %d instances, oracle %d", label, id, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: class %q instance %d is %v, oracle %v", label, id, i, g[i], w[i])
			}
		}
		if !reflect.DeepEqual(gx.segs[gg], wx.segs[wg]) {
			t.Fatalf("%s: class %q segments %q, oracle %q", label, id, gx.segs[gg], wx.segs[wg])
		}
	}
	if len(gx.leaf) != len(wx.leaf) {
		t.Fatalf("%s: leaf index differs:\n bulk:   %q\n oracle: %q", label, gx.leaf, wx.leaf)
	}
	for leaf, ids := range wx.leaf {
		if !slices.Equal(gx.leaf[leaf], ids) {
			t.Fatalf("%s: leaf index differs:\n bulk:   %q\n oracle: %q", label, gx.leaf, wx.leaf)
		}
	}
	for _, p := range oraclePatterns(t) {
		if g, w := got.Discover(p), want.Discover(p); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Discover(%s) finds %d instances, oracle %d", label, p, len(g), len(w))
		}
	}
}

// The bulk build against one-by-one insertion: same indexes after every
// batch, whatever was sealed in between, and no list it carved can be
// appended to into its neighbour.
func TestAddAllMatchesAdd(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		all := nestedInstances(rng, 2+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(6))
		// A class that arrives only with the last batch, next to ones that
		// already hold instances.
		all = append(all, &Instance{Key: K("Extra", "Knob"), Value: "1"}, &Instance{Key: K("Cloud::c1[1]", "Region"), Value: "late"})

		bulk, oracle := NewStore(), NewStore()
		var sealed []*Snapshot
		var sealedAs []string
		for rest, batch := all, 0; ; batch++ {
			n := rng.Intn(len(rest) + 1)
			if batch == 1 {
				n = 0 // an empty batch changes nothing and drops no seal
			}
			if batch == 6 {
				n = len(rest)
			}
			before := bulk.snap.Load()
			bulk.AddAll(rest[:n])
			oracle.addAllOracle(rest[:n])
			if n == 0 && bulk.snap.Load() != before {
				t.Fatalf("seed %d: an empty batch dropped the seal", seed)
			}
			label := fmt.Sprintf("seed %d batch %d", seed, batch)
			if rest = rest[n:]; rng.Intn(2) == 0 || len(rest) == 0 {
				// A seal between batches: the next one must copy on write.
				sameStoreIndexes(t, label, bulk, oracle)
				sn := bulk.Snapshot()
				sealed, sealedAs = append(sealed, sn), append(sealedAs, renderSnapshot(sn))
			}
			if len(rest) == 0 {
				break
			}
		}
		for i, sn := range sealed {
			if got := renderSnapshot(sn); got != sealedAs[i] {
				t.Fatalf("seed %d: a later AddAll changed snapshot %d", seed, i)
			}
		}

		// One by one through Add is the same store again.
		single := NewStore()
		for _, in := range all {
			single.Add(in)
		}
		sameStoreIndexes(t, fmt.Sprintf("seed %d via Add", seed), single, oracle)

		// Appending to any class list must copy it out, not write on.
		for g := range bulk.lists {
			_ = append(bulk.lists[g], &Instance{Value: "intruder"})
		}
		sameStoreIndexes(t, fmt.Sprintf("seed %d after appends", seed), bulk, oracle)
	}
}

// renderSnapshot spells out everything a reader of the snapshot can see.
func renderSnapshot(sn *Snapshot) string {
	s := fmt.Sprintf("%q\n%q\n%q\n", sn.idx.ids, sn.idx.segs, sn.idx.leaf)
	for g, id := range sn.idx.ids {
		s += id + ":" + render(sn.lists[g]) + "\n"
	}
	return s + render(sn.instances)
}

// The bulk build allocates per class, not per instance.
func TestAddAllAllocations(t *testing.T) {
	ins := nestedInstances(rand.New(rand.NewSource(1)), 10, 5, 1000) // about a thousand classes
	if len(ins) < 50000 {
		t.Fatalf("generated %d instances, want 50k", len(ins))
	}
	allocs := testing.AllocsPerRun(3, func() {
		NewStore().AddAll(ins)
	})
	if perInstance := allocs / float64(len(ins)); perInstance > 0.2 {
		t.Errorf("%.0f allocations for %d instances: %.3f per instance, want under 0.2", allocs, len(ins), perInstance)
	}
}

// The load-order pass against the class walk it stands in front of: the
// same delta, key for key and in the same order, whether the pass applies
// (same keys in the same order), gives up half way, or never starts.
func TestDiffLoadOrderMatchesClassWalk(t *testing.T) {
	pats := oraclePatterns(t)
	check := func(label string, old, sn *Snapshot) {
		t.Helper()
		got, want := sn.Diff(old), diffOracle(sn, old)
		added, removed, modified := got.Keys()
		if !reflect.DeepEqual(added, want.Added) || !reflect.DeepEqual(removed, want.Removed) || !reflect.DeepEqual(modified, want.Modified) {
			t.Fatalf("%s: deltas differ:\n Diff:   +%v -%v ~%v\n oracle: +%v -%v ~%v", label,
				added, removed, modified, want.Added, want.Removed, want.Modified)
		}
		for _, p := range pats {
			if g, w := got.Overlaps(p), want.Overlaps(p); g != w {
				t.Fatalf("%s: Overlaps(%s) = %v, oracle %v", label, p, g, w)
			}
		}
	}
	seal := func(ins []*Instance) *Snapshot {
		st := NewStore()
		st.AddAll(ins)
		return st.Snapshot()
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := nestedInstances(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(5))
		old := seal(base)
		variant := func(name string, edit func(ins []*Instance) []*Instance) {
			t.Helper()
			sn := seal(edit(cloneInstances(base)))
			check(fmt.Sprintf("seed %d %s", seed, name), old, sn)
			check(fmt.Sprintf("seed %d %s reversed", seed, name), sn, old)
		}

		variant("identical", func(ins []*Instance) []*Instance { return ins })
		for _, churn := range []int{1, 2, len(base) / 3, len(base)} {
			variant(fmt.Sprintf("churn %d", churn), func(ins []*Instance) []*Instance {
				for _, i := range rng.Perm(len(ins))[:churn] {
					ins[i].Value += "'"
				}
				return ins
			})
		}
		variant("duplicates re-valued", func(ins []*Instance) []*Instance {
			seen := make(map[string]bool)
			for _, in := range ins {
				if ks := in.Key.String(); seen[ks] {
					in.Value += "'"
				} else {
					seen[ks] = true
				}
			}
			return ins
		})
		variant("key inserted", func(ins []*Instance) []*Instance {
			at := rng.Intn(len(ins))
			extra := &Instance{Key: ins[at].Key.Append(Seg{Name: "Extra"}), Value: "new"}
			return append(ins[:at:at], append([]*Instance{extra}, ins[at:]...)...)
		})
		variant("key removed", func(ins []*Instance) []*Instance {
			at := rng.Intn(len(ins))
			return append(ins[:at:at], ins[at+1:]...)
		})
		variant("key moved", func(ins []*Instance) []*Instance {
			from, to := rng.Intn(len(ins)), rng.Intn(len(ins))
			in := ins[from]
			ins = append(ins[:from:from], ins[from+1:]...)
			return append(ins[:to:to], append([]*Instance{in}, ins[to:]...)...)
		})
		variant("class added", func(ins []*Instance) []*Instance {
			return append(ins, &Instance{Key: K("Extra", "Knob"), Value: "1"})
		})
		variant("class swapped", func(ins []*Instance) []*Instance {
			// As many instances and classes as before, under another name.
			for _, in := range ins {
				if in.Key.Leaf() == "Region" {
					in.Key.Segs[len(in.Key.Segs)-1].Name = "Zone"
				}
			}
			return ins
		})
		variant("permuted", func(ins []*Instance) []*Instance {
			rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
			return ins
		})
		variant("instance renamed and re-valued", func(ins []*Instance) []*Instance {
			ins[0].Value += "'"
			last := ins[len(ins)/2]
			last.Key.Segs[0].Inst += "'"
			return ins
		})

		// Two snapshots of one store: resealed as it is, and grown.
		st := NewStore()
		st.AddAll(cloneInstances(base))
		first := st.Snapshot()
		st.snap.Store(nil) // drops the seal; the maps stay shared
		check(fmt.Sprintf("seed %d resealed", seed), first, st.Snapshot())
		st.Add(&Instance{Key: base[0].Key, Value: "appended"})
		st.AddAll([]*Instance{{Key: K("Extra", "Knob"), Value: "1"}})
		check(fmt.Sprintf("seed %d grown", seed), first, st.Snapshot())
		check(fmt.Sprintf("seed %d shrunk", seed), st.Snapshot(), first)
	}
	check("against nothing", nil, seal(nestedInstances(rand.New(rand.NewSource(0)), 2, 2, 2)))
}

// classInstancesOracle is Snapshot.ClassInstances as it stood while it
// rendered every class's display path to find the one it was asked for.
func (sn *Snapshot) classInstancesOracle(classPath string) []*Instance {
	var out []*Instance
	for _, id := range sn.idx.ids {
		if displayClass(id) == classPath {
			out = append(out, sn.class(id)...)
		}
	}
	return out
}

// ClassInstances finds a class by its display path without rendering
// one, and returns what the rendering lookup returned: the same
// instances in the same order, including the union of the classes a
// dotted segment name makes ambiguous ("Cloud.Tenant" then Param0
// against Cloud, Tenant, Param0), and nothing for a path no class has.
func TestClassInstancesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		st := NewStore()
		st.AddAll(nestedInstances(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(6)))
		sn := st.Snapshot()
		paths := append(sn.Classes(), "", "Cloud", "Cloud.Tenant", "Cloud.Tenant.Param", "Cloud\x00Tenant\x00Param0", "NoSuch.Param0")
		unions := 0
		for _, cp := range paths {
			got, want := sn.ClassInstances(cp), sn.classInstancesOracle(cp)
			if len(got) != len(want) {
				t.Fatalf("round %d: %q: %d instances, oracle %d", round, cp, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("round %d: %q: instance %d is %v, oracle %v", round, cp, i, got[i], want[i])
				}
			}
			if cp == "Cloud.Tenant.Param0" && len(want) > len(sn.class("Cloud\x00Tenant\x00Param0")) {
				unions++
			}
		}
		if unions == 0 {
			t.Fatalf("round %d: the dotted-name union case did not arise", round)
		}
	}
}
