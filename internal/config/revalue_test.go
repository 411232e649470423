package config

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// revalueOracle is Partition.Revalue as it stood when a delta re-parse
// returned the whole re-valued batch rather than its changes: one pass
// comparing the batch's pointers with p's. Kept verbatim, as a function
// of p reading its new fields, as the oracle Revalue is held to; a
// partition no longer keeps each instance's class number, so the oracle
// finds it in p's class lists.
func revalueOracle(p *Partition, ins []*Instance) *Partition {
	if len(ins) != len(p.Instances()) {
		panic("config: Revalue of a batch of another length")
	}
	classOf := make(map[*Instance]int32)
	for g, part := range p.parts {
		for _, in := range part {
			classOf[in] = int32(g)
		}
	}
	out := &Partition{n: len(ins), list: loadOrder{ins: ins}, idx: p.idx, parts: p.parts}
	out.order = &out.list
	var from map[int32]int // a copied class -> where its next change is sought
	for i, in := range ins {
		was := p.Instances()[i]
		if in == was {
			continue
		}
		g := classOf[was]
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

// Revalue of a batch's changes builds the partition the full-list
// Revalue builds from the batch with the changes applied — the same load
// order, class lists and class index — over random batches and random
// sets of changes, none to many classes', with classes repeated, and a
// store adopting it diffs against the base as a store of the batch does.
func TestRevalueMatchesFullListRevalue(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for round := 0; round < 200; round++ {
		ins := nestedInstances(rng, 1+rng.Intn(3), 1+rng.Intn(4), 1+rng.Intn(5))
		base := NewPartition(ins)
		var changes []Change
		for i := range ins {
			if rng.Intn(1+round%7) == 0 {
				cp := *ins[i]
				cp.Value = fmt.Sprint("new", i)
				changes = append(changes, Change{I: i, In: &cp})
			}
		}
		full := slices.Clone(ins)
		for _, c := range changes {
			full[c.I] = c.In
		}
		got, want := base.Revalue(changes), revalueOracle(base, full)
		if !reflect.DeepEqual(got.parts, want.parts) || got.idx != want.idx || !slices.Equal(got.Instances(), want.Instances()) || got.Len() != want.Len() {
			t.Fatalf("round %d, %d changes: the partitions differ", round, len(changes))
		}
		if len(changes) == 0 && got != base {
			t.Fatalf("round %d: Revalue of no change made a new partition", round)
		}
		st, was := NewStore(), NewStore()
		st.AddPartition(got)
		was.AddPartition(base)
		ref := NewStore()
		ref.AddAll(full)
		gd, wd := st.Snapshot().Diff(was.Snapshot()), ref.Snapshot().Diff(was.Snapshot())
		ga, gr, gm := gd.Keys()
		wa, wr, wm := wd.Keys()
		if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gm, wm) {
			t.Fatalf("round %d: diff of the re-valued store +%v -%v ~%v, of the batch's +%v -%v ~%v", round, ga, gr, gm, wa, wr, wm)
		}
		if st.Len() != len(ins) || !slices.Equal(st.Snapshot().Instances(), full) {
			t.Fatalf("round %d: the re-valued store lists other instances", round)
		}
	}
}
