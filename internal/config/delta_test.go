package config

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// matchesEager holds the lazy Delta of sn against old to the eager one
// (eagerDiff, oracle_test.go): the same Overlaps verdict on every pattern
// — asked first of a delta with no key list materialised, then again once
// every list is — and the same Empty, Len and key lists, order included.
//
// Both deltas memoise verdicts by the pattern's rendering, and a name
// holding '.' or "::" (a store name, never a CPL one) renders like other
// segments: only the first pattern of each rendering is asked.
func matchesEager(t *testing.T, label string, sn, old *Snapshot, pats []Pattern) {
	t.Helper()
	seen := make(map[string]bool)
	unique := pats[:0:0]
	for _, p := range pats {
		if !seen[p.String()] {
			seen[p.String()] = true
			unique = append(unique, p)
		}
	}
	pats = unique
	want := eagerDiff(sn, old)
	fresh := sn.Diff(old)
	if g, w := fresh.Empty(), want.Empty(); g != w {
		t.Fatalf("%s: Empty() = %v, oracle %v", label, g, w)
	}
	got := sn.Diff(old)
	for _, p := range pats {
		if g, w := got.Overlaps(p), want.Overlaps(p); g != w {
			t.Fatalf("%s: Overlaps(%s) = %v, oracle %v", label, p, g, w)
		}
	}
	if g, w := got.OverlapsAny(pats), want.OverlapsAny(pats); g != w {
		t.Fatalf("%s: OverlapsAny = %v, oracle %v", label, g, w)
	}
	if g, w := got.Len(), want.Len(); g != w {
		t.Fatalf("%s: Len() = %d, oracle %d", label, g, w)
	}
	added, removed, modified := got.Keys()
	if !reflect.DeepEqual(added, want.Added) || !reflect.DeepEqual(removed, want.Removed) || !reflect.DeepEqual(modified, want.Modified) {
		t.Fatalf("%s: key lists differ:\n Diff:   +%v -%v ~%v\n oracle: +%v -%v ~%v", label,
			added, removed, modified, want.Added, want.Removed, want.Modified)
	}
	if g, w := got.Empty(), want.Empty(); g != w {
		t.Fatalf("%s: Empty() after Keys = %v, oracle %v", label, g, w)
	}
	materialised := sn.Diff(old)
	materialised.Keys()
	for _, p := range pats {
		if g, w := materialised.Overlaps(p), want.Overlaps(p); g != w {
			t.Fatalf("%s: Overlaps(%s) with the key lists materialised = %v, oracle %v", label, p, g, w)
		}
	}
}

// derivedPatterns builds, from the first distinct keys given, every shape
// of footprint pattern the delta distinguishes: the leaf alone (exact,
// glob, instance-constrained), the full path by name, with one segment's
// instance pinned to the key's, to "*", to a prefix glob ("x*") and to a
// missing name, with its ordinal pinned, with a glob leaf or inner name, one
// segment too long, and with a variable.
func derivedPatterns(keys []Key) []Pattern {
	// Bounds on the keys patterns are derived from, which keep a fuzzed
	// document's pattern set small: patterns per key grow with the square
	// of its length.
	const maxKeys, maxSegs = 24, 8
	var pats []Pattern
	add := func(segs ...PatSeg) { pats = append(pats, Pattern{Segs: segs}) }
	names := func(k Key) []PatSeg {
		segs := make([]PatSeg, len(k.Segs))
		for i, s := range k.Segs {
			segs[i] = PatSeg{Name: s.Name}
		}
		return segs
	}
	seen := make(map[string]bool)
	add(PatSeg{Name: "*"})
	for _, k := range keys {
		if len(k.Segs) == 0 || len(k.Segs) > maxSegs || seen[k.String()] || len(seen) == maxKeys {
			continue
		}
		seen[k.String()] = true
		leaf := k.Segs[len(k.Segs)-1]
		add(PatSeg{Name: leaf.Name})
		add(PatSeg{Name: leaf.Name, Inst: leaf.Inst + "*"})
		add(PatSeg{Name: leaf.Name, Index: leaf.Index})
		add(PatSeg{Name: leaf.Name[:len(leaf.Name)/2] + "*"})
		add(names(k)...)
		for j, s := range k.Segs {
			inst := s.Inst
			if inst == "" {
				inst = "x"
			}
			for _, c := range []PatSeg{
				{Name: s.Name, Inst: inst},
				{Name: s.Name, Inst: "*"},
				{Name: s.Name, Inst: inst[:1] + "*"},
				{Name: s.Name, Inst: inst + "*"},
				{Name: s.Name, Inst: "absent"},
				{Name: s.Name, Index: s.Index},
				{Name: s.Name, Index: s.Index + 1},
				{Name: "*"},
				{Name: s.Name, InstVar: "X"},
			} {
				segs := names(k)
				segs[j] = c
				add(segs...)
			}
		}
		globLeaf := names(k)
		globLeaf[len(globLeaf)-1].Name = "*"
		add(globLeaf...)
		add(append(names(k), PatSeg{Name: leaf.Name})...)
	}
	return pats
}

func snapshotKeys(sns ...*Snapshot) []Key {
	var keys []Key
	for _, sn := range sns {
		if sn == nil {
			continue
		}
		for _, in := range sn.instances {
			keys = append(keys, in.Key)
		}
	}
	return keys
}

func sealed(ins []*Instance) *Snapshot {
	st := NewStore()
	st.AddAll(ins)
	return st.Snapshot()
}

// The lazy Delta against the eager oracle over every shape of change it
// proves differently: instances renamed (misaligned, the key absent from
// the old list), keys reordered (misaligned, the key present), duplicate
// keys whose value sequences change, lists of unequal length, classes
// added or removed wholesale, load-order value churn, copy-on-write
// successive seals, and the nil and identical cases.
func TestDeltaMatchesEagerOracle(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base := nestedInstances(rng, 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(5))
		old := sealed(base)
		check := func(name string, sn, old *Snapshot) {
			t.Helper()
			pats := append(derivedPatterns(snapshotKeys(sn, old)), oraclePatterns(t)...)
			matchesEager(t, fmt.Sprintf("seed %d %s", seed, name), sn, old, pats)
		}
		variant := func(name string, edit func(ins []*Instance) []*Instance) {
			t.Helper()
			sn := sealed(edit(cloneInstances(base)))
			check(name, sn, old)
			check(name+" reversed", old, sn)
		}

		variant("identical", func(ins []*Instance) []*Instance { return ins })
		variant("value churn", func(ins []*Instance) []*Instance {
			for _, i := range rng.Perm(len(ins))[:1+rng.Intn(3)] {
				ins[i].Value += "'"
			}
			return ins
		})
		variant("cluster renamed", func(ins []*Instance) []*Instance {
			for _, in := range ins {
				if in.Key.Segs[0].Inst == "c2" {
					in.Key.Segs[0].Inst = "renamed"
				}
			}
			return ins
		})
		variant("every instance renamed", func(ins []*Instance) []*Instance {
			for _, in := range ins {
				in.Key.Segs[0].Inst = "a-" + in.Key.Segs[0].Inst
			}
			return ins
		})
		variant("reordered", func(ins []*Instance) []*Instance {
			// The first two instances of the widest class change places:
			// misaligned, every key still present, nothing changed.
			byClass := make(map[string][]int)
			for i, in := range ins {
				byClass[in.Key.ClassPath()] = append(byClass[in.Key.ClassPath()], i)
			}
			var widest []int
			for _, is := range byClass {
				if len(is) > len(widest) || len(is) == len(widest) && is[0] < widest[0] {
					widest = is
				}
			}
			ins[widest[0]], ins[widest[1]] = ins[widest[1]], ins[widest[0]]
			return ins
		})
		variant("reordered and re-valued", func(ins []*Instance) []*Instance {
			ins[0], ins[len(ins)-1] = ins[len(ins)-1], ins[0]
			ins[len(ins)/2].Value += "'"
			return ins
		})
		variant("permuted", func(ins []*Instance) []*Instance {
			rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
			return ins
		})
		variant("duplicate values swapped", func(ins []*Instance) []*Instance {
			// A key listed twice whose two values trade places: same keys in
			// the same order, a different value sequence.
			ins = append(ins,
				&Instance{Key: K("Dup", "Knob"), Value: "1"},
				&Instance{Key: K("Dup", "Knob"), Value: "2"})
			return ins
		})
		variant("duplicate appended", func(ins []*Instance) []*Instance {
			return append(ins, &Instance{Key: ins[len(ins)/2].Key, Value: ins[len(ins)/2].Value})
		})
		variant("instance removed", func(ins []*Instance) []*Instance {
			at := rng.Intn(len(ins))
			return append(ins[:at:at], ins[at+1:]...)
		})
		variant("instance added", func(ins []*Instance) []*Instance {
			at := rng.Intn(len(ins))
			extra := &Instance{Key: ins[at].Key.Append(Seg{Name: "Extra", Index: 2}), Value: "new"}
			return append(ins[:at:at], append([]*Instance{extra}, ins[at:]...)...)
		})
		variant("class swapped", func(ins []*Instance) []*Instance {
			for _, in := range ins {
				if in.Key.Leaf() == "Region" {
					in.Key.Segs[len(in.Key.Segs)-1].Name = "Zone"
				}
			}
			return ins
		})

		// Duplicates whose values swap against the base that holds them.
		dups := append(cloneInstances(base),
			&Instance{Key: K("Dup", "Knob"), Value: "2"},
			&Instance{Key: K("Dup", "Knob"), Value: "1"})
		swapped := cloneInstances(dups)
		n := len(swapped)
		swapped[n-2].Value, swapped[n-1].Value = swapped[n-1].Value, swapped[n-2].Value
		check("duplicate sequence reversed", sealed(swapped), sealed(dups))

		// Nothing and itself.
		check("against nothing", old, nil)
		check("against itself", old, old)

		// Successive seals of one store: shared class slices, one grown,
		// one new class, and a reseal with nothing in between.
		st := NewStore()
		st.AddAll(cloneInstances(base))
		first := st.Snapshot()
		st.snap.Store(nil) // drops the seal; the maps stay shared
		check("resealed", st.Snapshot(), first)
		st.Add(&Instance{Key: base[0].Key, Value: "appended"})
		st.AddAll([]*Instance{{Key: K("Extra", "Knob"), Value: "1"}})
		check("grown", st.Snapshot(), first)
		check("shrunk", first, st.Snapshot())
	}
}

// kvSnapshot seals a key-value document, one "key = value" per line, keys
// in ParseKey's grammar; lines that do not parse are skipped.
func kvSnapshot(doc string) *Snapshot {
	st := NewStore()
	for _, line := range strings.Split(doc, "\n") {
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		k, err := ParseKey(strings.TrimSpace(key))
		if err != nil {
			continue
		}
		st.Add(&Instance{Key: k, Value: strings.TrimSpace(val)})
	}
	return st.Snapshot()
}

func renderKV(ins []*Instance) string {
	var b strings.Builder
	for _, in := range ins {
		fmt.Fprintf(&b, "%s = %s\n", in.Key, in.Value)
	}
	return b.String()
}

// FuzzDeltaOverlaps holds the lazy Delta to the eager oracle on two KV
// documents, with patterns derived from both sides' keys: as unrelated
// stores, in both directions, against nothing, and as two successive seals
// of one store that loads the first document and then the second.
func FuzzDeltaOverlaps(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	base := nestedInstances(rng, 3, 2, 3)
	renamed := cloneInstances(base)
	for _, in := range renamed {
		in.Key.Segs[0].Inst = "a-" + in.Key.Segs[0].Inst
	}
	reordered := cloneInstances(base)
	reordered[1], reordered[4] = reordered[4], reordered[1]
	churned := cloneInstances(base)
	churned[3].Value += "'"
	for _, other := range [][]*Instance{base, renamed, reordered, churned, base[1:], append(cloneInstances(base), base[2])} {
		f.Add(renderKV(base), renderKV(other))
	}
	f.Add("A::x.B = 1\nA::x.B = 2\n", "A::x.B = 2\nA::x.B = 1\n")
	f.Add("A::x[1].B = 1\nA::y[2].B = 1\n", "A::y[2].B = 1\nA::x[1].B = 1\n")
	f.Add("a = 1\n", "")
	f.Fuzz(func(t *testing.T, a, b string) {
		old, sn := kvSnapshot(a), kvSnapshot(b)
		pats := derivedPatterns(snapshotKeys(old, sn))
		matchesEager(t, "unrelated", sn, old, pats)
		matchesEager(t, "reversed", old, sn, pats)
		matchesEager(t, "against nothing", sn, nil, pats)
		st := NewStore()
		st.AddAll(old.instances)
		first := st.Snapshot()
		st.AddAll(sn.instances)
		matchesEager(t, "successive seals", st.Snapshot(), first, pats)
	})
}
