package plan

import (
	"fmt"
	"testing"

	"confvalley/internal/config"
)

// prefixPartition and groupByPrefix are the partition the executor used
// before compartment instances were numbered run-wide, kept as the
// oracle: instances grouped by Key.PrefixString(n), groups in
// first-appearance order, members in input order.
type prefixPartition struct {
	// Order lists the group identities in first-appearance order.
	Order []string

	index map[string]int
	parts [][]*config.Instance
}

// Group returns the instances of one group in their original order, nil
// for an identity that is not in Order.
func (p *prefixPartition) Group(id string) []*config.Instance {
	if g, ok := p.index[id]; ok {
		return p.parts[g]
	}
	return nil
}

// groupByPrefix partitions instances by the rendering of their first n
// key segments (Key.PrefixString).
func groupByPrefix(ins []*config.Instance, n int) *prefixPartition {
	p := &prefixPartition{index: make(map[string]int)}
	of := make([]int32, len(ins)) // group number of each instance
	var sizes []int
	for i, in := range ins {
		id := in.Key.PrefixString(n)
		g, ok := p.index[id]
		if !ok {
			g = len(p.Order)
			p.Order = append(p.Order, id)
			p.index[id] = g
			sizes = append(sizes, 0)
		}
		of[i] = int32(g)
		sizes[g]++
	}
	backing := make([]*config.Instance, len(ins))
	p.parts = make([][]*config.Instance, len(sizes))
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

// rendering inverts the table's numbering at depth n.
func (t *groupNumbers) rendering(n int) map[int32]string {
	out := map[int32]string{}
	if n < len(t.byDepth) {
		for id, g := range t.byDepth[n] {
			out[g] = id
		}
	}
	return out
}

// checkAgainstOracle holds one partition to groupByPrefix: the same
// groups, named by the same renderings, in the same order, with the same
// members, each group's slice clipped to its length.
func checkAgainstOracle(t *testing.T, tab *groupNumbers, p *partition, ins []*config.Instance, n int) {
	t.Helper()
	want := groupByPrefix(ins, n)
	names := tab.rendering(n)
	got := make([]string, len(p.order))
	for i, g := range p.order {
		got[i] = names[g]
	}
	if fmt.Sprint(got) != fmt.Sprint(want.Order) {
		t.Fatalf("n=%d: order = %q, want %q", n, got, want.Order)
	}
	for i, g := range p.order {
		members, wantMembers := p.group(g), want.Group(want.Order[i])
		if len(members) != len(wantMembers) || cap(members) != len(members) {
			t.Fatalf("n=%d group %q: len %d cap %d, want len = cap = %d", n, got[i], len(members), cap(members), len(wantMembers))
		}
		for j := range members {
			if members[j] != wantMembers[j] {
				t.Errorf("n=%d group %q member %d = %s, want %s", n, got[i], j, members[j], wantMembers[j])
			}
		}
	}
}

// The run-wide numbering partitions exactly as the per-rendering
// grouping it replaced: over interleaved groups, keys shorter than n,
// n = 0, and segments whose structure differs but whose rendering
// collides.
func TestGroupNumbersMatchGroupByPrefix(t *testing.T) {
	mk := func(v string, segs ...config.Seg) *config.Instance {
		return &config.Instance{Key: config.Key{Segs: segs}, Value: v}
	}
	ins := []*config.Instance{
		mk("0", config.Seg{Name: "A", Inst: "b"}, config.Seg{Name: "x"}),
		mk("1", config.Seg{Name: "C", Index: 2}, config.Seg{Name: "x"}),
		mk("2", config.Seg{Name: "A::b"}, config.Seg{Name: "x"}), // collides with instance 0's group
		mk("3", config.Seg{Name: "C", Index: 2}),                 // shorter than n = 2
		mk("4", config.Seg{Name: "C", Index: 2}, config.Seg{Name: "x"}),
		mk("5", config.Seg{Name: "A", Inst: "b"}, config.Seg{Name: "y"}),
	}
	var tab groupNumbers
	for n := 0; n <= 3; n++ {
		checkAgainstOracle(t, &tab, tab.partition(ins, n), ins, n)
	}
	p1 := tab.partition(ins, 1)
	if g := p1.order[0]; len(p1.group(g)) != 3 || tab.rendering(1)[g] != "A::b" {
		t.Errorf("group %q has %d members, want the 3 whose renderings collide under A::b", tab.rendering(1)[g], len(p1.group(g)))
	}
	if empty := tab.partition(nil, 1); len(empty.order) != 0 || empty.group(0) != nil {
		t.Errorf("empty partition = %+v", empty)
	}
}

// A partition over a store's discovery result: one group per compartment
// instance, named by its rendering, and no members for a number the
// partition does not hold.
func TestGroupNumbersPartition(t *testing.T) {
	st := config.NewStore()
	for i := 1; i <= 3; i++ {
		st.Add(&config.Instance{Key: config.K(fmt.Sprintf("VLAN::v%d", i), "StartIP"), Value: fmt.Sprintf("10.0.%d.1", i)})
		st.Add(&config.Instance{Key: config.K(fmt.Sprintf("VLAN::v%d", i), "EndIP"), Value: fmt.Sprintf("10.0.%d.9", i)})
	}
	ins := st.Discover(config.P("VLAN", "StartIP"))
	var tab groupNumbers
	part := tab.partition(ins, 1)
	checkAgainstOracle(t, &tab, part, ins, 1)
	if len(part.order) != 3 {
		t.Fatalf("groups = %d, want 3", len(part.order))
	}
	if got := tab.rendering(1)[part.order[0]]; got != "VLAN::v1" {
		t.Errorf("group order[0] = %q", got)
	}
	for _, g := range part.order {
		if len(part.group(g)) != 1 {
			t.Errorf("group %d has %d members, want 1", g, len(part.group(g)))
		}
	}
	for _, g := range []int32{-1, 3, 1 << 20} {
		if got := part.group(g); got != nil {
			t.Errorf("group %d = %v, want nil", g, got)
		}
	}
}

// Two references partitioned under one run agree on every group's
// number, whatever order their instances come in and whichever groups
// each lacks: that is what lets a compartment's grouping reference name
// the group the others are looked up in.
func TestGroupNumbersAgreeAcrossPartitions(t *testing.T) {
	mk := func(cluster, param string) *config.Instance {
		return &config.Instance{Key: config.K("Cluster::"+cluster, param), Value: cluster}
	}
	starts := []*config.Instance{mk("c1", "VipStart"), mk("c2", "VipStart"), mk("c3", "VipStart")}
	ends := []*config.Instance{mk("c4", "VipEnd"), mk("c3", "VipEnd"), mk("c1", "VipEnd")}
	var tab groupNumbers
	ps, pe := tab.partition(starts, 1), tab.partition(ends, 1)
	checkAgainstOracle(t, &tab, ps, starts, 1)
	checkAgainstOracle(t, &tab, pe, ends, 1)
	names := tab.rendering(1)
	if len(names) != 4 {
		t.Fatalf("%d numbers for 4 clusters: %v", len(names), names)
	}
	for g, id := range names {
		s, e := ps.group(g), pe.group(g)
		for _, in := range append(s, e...) {
			if got := in.Key.PrefixString(1); got != id {
				t.Errorf("group %d (%s) holds %s", g, id, in.Key)
			}
		}
		if (s == nil) != (id == "Cluster::c4") || (e == nil) != (id == "Cluster::c2") {
			t.Errorf("group %d (%s): %d starts, %d ends", g, id, len(s), len(e))
		}
	}
}
