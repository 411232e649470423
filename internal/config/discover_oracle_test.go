package config

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// discoverOracle is Snapshot.discover as it stood before a pattern that
// constrains names only was answered with the matched classes' sealed
// slices: every instance of every matched class tested with MatchKey. It is
// kept verbatim as the oracle View is held to.
func (sn *Snapshot) discoverOracle(p Pattern) []*Instance {
	if len(p.Segs) == 0 || p.HasVars() {
		return nil
	}
	var classPaths []string
	if len(p.Segs) == 1 {
		classPaths = sn.leafClassPaths(p.Segs[0].Name)
	} else {
		classPaths = sn.matchClassPaths(p)
	}
	var out []*Instance
	for _, cp := range classPaths {
		for _, in := range sn.class(cp) {
			if p.MatchKey(in.Key) {
				out = append(out, in)
			}
		}
	}
	return out
}

// discoveryPatterns returns patterns of every kind over the classes of
// nestedInstances: plain, globbed, instance-constrained, ordinal-
// constrained and with variables, leaf-only and full-path, and more drawn
// at random from the keys themselves.
func discoveryPatterns(rng *rand.Rand, ins []*Instance) []Pattern {
	strs := []string{
		// plain
		"Param0", "Limit", "Region", "NoSuch", "Cloud.Region", "Cloud.Tenant.Param1", "Cloud::x.Limit", "Cloud.Tenant.Param0",
		// glob
		"Param*", "*", "*0", "Cloud.*", "*.Limit", "Cloud.*.Param1", "C*.T*.P*", "*.*.*", "Cloud*.Limit",
		// instance
		"Cloud::c1.Tenant.Param2", "Cloud.Tenant::t2.Param0", "Cloud::c*.Tenant::t1.Param*", "Cloud::x.Limit", "Cloud::*.Region",
		// ordinal
		"Cloud[2].Tenant.Param1", "Cloud.Tenant[1].Param0", "Cloud[1].Region", "Param0[1]", "Cloud::c2[2].Tenant[2].Param0", "Cloud[9].Region",
		// variable
		"Cloud::$c.Tenant.Param0", "$x", "Cloud[$i].Region", "$c.Limit",
	}
	var pats []Pattern
	for _, s := range strs {
		p, err := ParsePattern(s)
		if err != nil {
			panic(err)
		}
		pats = append(pats, p)
	}
	for i := 0; i < 200; i++ {
		k := ins[rng.Intn(len(ins))].Key
		segs := k.Segs
		if rng.Intn(3) == 0 {
			segs = segs[len(segs)-1:]
		}
		var p Pattern
		for _, s := range segs {
			ps := PatSeg{Name: s.Name}
			switch rng.Intn(4) {
			case 0:
				ps.Name = s.Name[:rng.Intn(len(s.Name)+1)] + "*"
			case 1:
				ps.Inst = s.Inst
				if s.Inst == "" {
					ps.Inst = "*"
				}
			case 2:
				ps.Index = s.Index + rng.Intn(2)
			}
			p.Segs = append(p.Segs, ps)
		}
		pats = append(pats, p)
	}
	return pats
}

// View answers every pattern with the oracle's instances, in its order:
// the class slices it hands back whole for name-only patterns are exactly
// what the per-instance MatchKey loop kept.
func TestViewMatchesDiscoverOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for round := 0; round < 20; round++ {
		ins := nestedInstances(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(6))
		st := NewStore()
		st.AddAll(ins)
		sn := st.Snapshot()
		for _, p := range discoveryPatterns(rng, ins) {
			want := sn.discoverOracle(p)
			for pass := 0; pass < 2; pass++ { // a miss, then a cache hit
				got := sn.View(NewQuery(p))
				if !slices.Equal(got, want) {
					t.Fatalf("round %d, pattern %s: View found %d instances, the oracle %d:\n view:   %s\n oracle: %s",
						round, p, len(got), len(want), keysOf(got), keysOf(want))
				}
				if cap(got) != len(got) {
					t.Fatalf("pattern %s: View's result has room behind it (len %d, cap %d)", p, len(got), cap(got))
				}
			}
		}
	}
}

func keysOf(ins []*Instance) string {
	var b strings.Builder
	for _, in := range ins {
		fmt.Fprintf(&b, "%s ", in.Key)
	}
	return b.String()
}

// The discovery cache and the delta's overlap memo key a pattern by all
// of its fields: a one-segment name holding a '.' renders in CPL like
// two segments, and a substituted instance name holding "::" or '.' like
// more, but each such pattern gets its own answer, whichever is asked
// first.
func TestPatternKeysAreInjective(t *testing.T) {
	ins := []*Instance{
		{Key: Key{Segs: []Seg{{Name: "Cloud.Tenant", Index: 1}, {Name: "Param0"}}}, Value: "a"},
		{Key: Key{Segs: []Seg{{Name: "Cloud"}, {Name: "Tenant", Index: 1}, {Name: "Param0"}}}, Value: "b"},
		{Key: Key{Segs: []Seg{{Name: "Host", Inst: "db.east"}, {Name: "Port"}}}, Value: "c"},
		{Key: Key{Segs: []Seg{{Name: "Host", Inst: "db"}, {Name: "east"}, {Name: "Port"}}}, Value: "d"},
	}
	dotted := Pattern{Segs: []PatSeg{{Name: "Cloud.Tenant", Index: 1}, {Name: "Param0"}}}
	three := Pattern{Segs: []PatSeg{{Name: "Cloud"}, {Name: "Tenant", Index: 1}, {Name: "Param0"}}}
	host := P("Host::$h", "Port")
	dottedHost := host.Substitute(func(string) (string, bool) { return "db.east", true })
	if dotted.String() != three.String() {
		t.Fatalf("the patterns render as %q and %q; the test wants them to render alike", dotted, three)
	}
	pats := []Pattern{dotted, three, dottedHost, P("Host::db", "east", "Port")}
	for first := range 2 {
		st := NewStore()
		st.AddAll(ins)
		sn := st.Snapshot()
		order := slices.Clone(pats)
		if first == 1 {
			slices.Reverse(order)
		}
		for _, p := range order {
			if got, want := sn.View(NewQuery(p)), sn.discoverOracle(p); !slices.Equal(got, want) {
				t.Errorf("pattern %+v: View found the instances valued %v, want %v", p.Segs, valuesOf(got), valuesOf(want))
			}
		}

		// Re-value the dotted-name instance only: the delta overlaps the
		// pattern naming it and not the one rendering alike.
		changed := slices.Clone(ins)
		cp := *ins[0]
		cp.Value = "a2"
		changed[0] = &cp
		next := NewStore()
		next.AddAll(changed)
		d := next.Snapshot().Diff(sn)
		pair := []Pattern{dotted, three}
		if first == 1 {
			slices.Reverse(pair)
		}
		for _, p := range pair {
			if got, want := d.Overlaps(p), p.Segs[0].Name == "Cloud.Tenant"; got != want {
				t.Errorf("pattern %v: Overlaps = %v, want %v", p.Segs, got, want)
			}
		}
	}
}

// valuesOf returns the instances' values, which tell apart instances whose
// keys render alike.
func valuesOf(ins []*Instance) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.Value
	}
	return out
}
