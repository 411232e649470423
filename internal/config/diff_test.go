package config

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// naiveDiff computes the changed-key sets by brute force: group each
// snapshot's instances into per-key value sequences and compare the two
// maps outright. This is the semantic definition Snapshot.Diff must
// agree with.
func naiveDiff(old, new *Snapshot) (added, removed, modified map[string]bool) {
	group := func(sn *Snapshot) map[string][]string {
		m := make(map[string][]string)
		if sn == nil {
			return m
		}
		for _, in := range sn.Instances() {
			ks := in.Key.String()
			m[ks] = append(m[ks], in.Value)
		}
		return m
	}
	oldBy, newBy := group(old), group(new)
	added = make(map[string]bool)
	removed = make(map[string]bool)
	modified = make(map[string]bool)
	for ks, nv := range newBy {
		ov, ok := oldBy[ks]
		if !ok {
			added[ks] = true
			continue
		}
		if !sameValues(ov, nv) {
			modified[ks] = true
		}
	}
	for ks := range oldBy {
		if _, ok := newBy[ks]; !ok {
			removed[ks] = true
		}
	}
	return added, removed, modified
}

func keySet(keys []Key) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k.String()] = true
	}
	return m
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func checkDelta(t *testing.T, label string, d Delta, old, new *Snapshot) {
	t.Helper()
	wantAdd, wantRem, wantMod := naiveDiff(old, new)
	added, removed, modified := d.Keys()
	for name, pair := range map[string][2]map[string]bool{
		"added":    {keySet(added), wantAdd},
		"removed":  {keySet(removed), wantRem},
		"modified": {keySet(modified), wantMod},
	} {
		got, want := pair[0], pair[1]
		if len(got) != len(want) {
			t.Fatalf("%s: %s keys: Diff %v vs naive %v",
				label, name, sortedKeys(got), sortedKeys(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s: Diff missed %s key %s", label, name, k)
			}
		}
	}
	if want := len(wantAdd) + len(wantRem) + len(wantMod); d.Len() != want {
		t.Fatalf("%s: Delta.Len() = %d, naive counts %d", label, d.Len(), want)
	}
	if d.Empty() != (d.Len() == 0) {
		t.Fatalf("%s: Empty()=%v with Len()=%d", label, d.Empty(), d.Len())
	}
}

// randomDiffStore builds a store from a shared key universe so that two
// independently built stores overlap heavily: same keys with same values
// (unchanged), same keys with different values (modified), and keys only
// one side holds (added/removed). Duplicate keys are injected so the
// value-sequence comparison is exercised too.
func randomDiffStore(rng *rand.Rand, side int) *Store {
	st := NewStore()
	scopes := []string{"Cloud", "Cluster", "Rack"}
	for i := 0; i < 120; i++ {
		// Key identity is derived from i alone; presence and value vary
		// per side under the rng, so the two sides diverge realistically.
		var k Key
		depth := 1 + i%2
		for d := 0; d < depth; d++ {
			k.Segs = append(k.Segs, Seg{
				Name: scopes[(i+d)%len(scopes)],
				Inst: fmt.Sprintf("i%d", i%4),
			})
		}
		k.Segs = append(k.Segs, Seg{Name: fmt.Sprintf("Param%d", i%17)})
		switch rng.Intn(10) {
		case 0: // present on this side only sometimes
			if side == rng.Intn(2) {
				continue
			}
		case 1: // value differs per side
			st.Add(&Instance{Key: k, Value: fmt.Sprintf("side%d-%d", side, rng.Intn(3))})
			continue
		case 2: // duplicate key: value sequence of random length
			for n := 1 + rng.Intn(3); n > 0; n-- {
				st.Add(&Instance{Key: k, Value: fmt.Sprintf("dup%d", rng.Intn(2))})
			}
			continue
		}
		st.Add(&Instance{Key: k, Value: fmt.Sprintf("stable%d", i)})
	}
	return st
}

// Property: Diff agrees with the naive full key-set comparison on pairs
// of independently rebuilt stores (the watch-round reload model, where
// no submaps are shared and both the aligned and the general per-class
// paths are hit).
func TestPropDiffAgreesWithNaiveRebuilt(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oldSnap := randomDiffStore(rng, 0).Snapshot()
		newSnap := randomDiffStore(rng, 1).Snapshot()
		d := newSnap.Diff(oldSnap)
		checkDelta(t, fmt.Sprintf("seed %d", seed), d, oldSnap, newSnap)
	}
}

// Property: Diff agrees with naive comparison across successive seals of
// one store — the copy-on-write case, where untouched classes share
// their instance slices between the two snapshots and must be skipped
// without being misreported.
func TestPropDiffAgreesWithNaiveSharedSubmaps(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomDiffStore(rng, 0)
		oldSnap := st.Snapshot()
		// Mutate after sealing: new keys in fresh classes, new keys in
		// existing classes, and duplicate appends to existing keys (which
		// extend the value sequence, i.e. count as modified).
		for i := 0; i < 15; i++ {
			switch rng.Intn(3) {
			case 0:
				st.Add(&Instance{
					Key:   K(fmt.Sprintf("Fresh%d", rng.Intn(4)), fmt.Sprintf("New%d", i)),
					Value: "v",
				})
			case 1:
				st.Add(&Instance{
					Key:   K("Cloud::i0", fmt.Sprintf("Param%d", rng.Intn(17))),
					Value: fmt.Sprintf("late%d", i),
				})
			default:
				if ins := oldSnap.Instances(); len(ins) > 0 {
					st.Add(&Instance{Key: ins[rng.Intn(len(ins))].Key, Value: "appended"})
				}
			}
		}
		newSnap := st.Snapshot()
		d := newSnap.Diff(oldSnap)
		checkDelta(t, fmt.Sprintf("seed %d", seed), d, oldSnap, newSnap)
		if d.Empty() {
			t.Fatalf("seed %d: mutations produced an empty delta", seed)
		}
	}
}

// Diffing a snapshot against itself, or against an equal reseal with no
// intervening mutation, is empty; against nil everything is added.
func TestDiffEdgeCases(t *testing.T) {
	st := NewStore()
	st.Add(&Instance{Key: K("Cloud::a", "Timeout"), Value: "30"})
	st.Add(&Instance{Key: K("Cloud::b", "Timeout"), Value: "45"})
	sn := st.Snapshot()

	if d := sn.Diff(sn); !d.Empty() {
		t.Fatalf("self-diff not empty: %d changes", d.Len())
	}
	if d := sn.Diff(st.Snapshot()); !d.Empty() {
		t.Fatalf("reseal-diff not empty: %d changes", d.Len())
	}
	d := sn.Diff(nil)
	if added, removed, modified := d.Keys(); len(added) != 2 || len(removed) != 0 || len(modified) != 0 {
		t.Fatalf("nil-diff: added=%d removed=%d modified=%d, want 2/0/0",
			len(added), len(removed), len(modified))
	}
}

// Property: Overlaps agrees with brute-force MatchKey over the changed
// keys, for the same pattern mix the discovery property tests use (exact
// leaves, globs, instances, indexes, multi-segment paths).
func TestPropDeltaOverlapsAgreesWithMatchKey(t *testing.T) {
	for seed := int64(200); seed < 225; seed++ {
		rng := rand.New(rand.NewSource(seed))
		oldSt, pats := randomStoreAndPatterns(rng)
		oldSnap := oldSt.Snapshot()
		newSt, _ := randomStoreAndPatterns(rng)
		newSnap := newSt.Snapshot()
		d := newSnap.Diff(oldSnap)

		// The keys come from a second delta, so d answers Overlaps with no
		// key list materialised beforehand.
		ref := newSnap.Diff(oldSnap)
		added, removed, modified := ref.Keys()
		changed := append(append(added, removed...), modified...)
		for _, p := range pats {
			want := false
			for _, k := range changed {
				if p.MatchKey(k) {
					want = true
					break
				}
			}
			if got := d.Overlaps(p); got != want {
				t.Fatalf("seed %d pattern %s: Overlaps=%v, brute force=%v",
					seed, p, got, want)
			}
			// Memoized second call must agree.
			if got := d.Overlaps(p); got != want {
				t.Fatalf("seed %d pattern %s: memoized Overlaps flipped", seed, p)
			}
		}
		if d.OverlapsAny(nil) {
			t.Fatalf("seed %d: OverlapsAny(nil) = true", seed)
		}
		// A pattern with an unsubstituted variable must report no overlap
		// (its owning spec is handled via the Dynamic flag instead).
		v, err := ParsePattern("Cloud::$X.Timeout")
		if err != nil {
			t.Fatal(err)
		}
		if d.Overlaps(v) {
			t.Fatalf("seed %d: variable pattern overlapped", seed)
		}
	}
}
