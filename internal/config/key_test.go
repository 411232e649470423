package config

import "testing"

func TestSegString(t *testing.T) {
	cases := []struct {
		seg  Seg
		want string
	}{
		{Seg{Name: "Cloud"}, "Cloud"},
		{Seg{Name: "Cloud", Inst: "East1"}, "Cloud::East1"},
		{Seg{Name: "Cloud", Index: 2}, "Cloud[2]"},
		{Seg{Name: "Cloud", Inst: "East1", Index: 2}, "Cloud::East1[2]"},
	}
	for _, c := range cases {
		if got := c.seg.String(); got != c.want {
			t.Errorf("Seg.String() = %q, want %q", got, c.want)
		}
	}
}

func TestKBuilderRoundTrip(t *testing.T) {
	k := K("CloudGroup::East1", "Cloud::S1[2]", "Tenant[1]", "MonitorNodeHealth")
	if got := k.String(); got != "CloudGroup::East1.Cloud::S1[2].Tenant[1].MonitorNodeHealth" {
		t.Errorf("Key.String() = %q", got)
	}
	if got := k.ClassPath(); got != "CloudGroup.Cloud.Tenant.MonitorNodeHealth" {
		t.Errorf("ClassPath() = %q", got)
	}
	if got := k.Leaf(); got != "MonitorNodeHealth" {
		t.Errorf("Leaf() = %q", got)
	}
	if k.Segs[1].Inst != "S1" || k.Segs[1].Index != 2 {
		t.Errorf("segment parse: %+v", k.Segs[1])
	}
}

func TestKeyPrefixString(t *testing.T) {
	k := K("A::1", "B::2", "C")
	if got := k.PrefixString(2); got != "A::1.B::2" {
		t.Errorf("PrefixString(2) = %q", got)
	}
	if got := k.PrefixString(99); got != k.String() {
		t.Errorf("PrefixString over length should render full key: %q", got)
	}
}

func TestKeyAppendDoesNotAlias(t *testing.T) {
	base := K("A", "B")
	k1 := base.Append(Seg{Name: "C"})
	k2 := base.Append(Seg{Name: "D"})
	if k1.String() != "A.B.C" || k2.String() != "A.B.D" {
		t.Errorf("Append aliasing: %q, %q", k1, k2)
	}
	if base.String() != "A.B" {
		t.Errorf("Append mutated receiver: %q", base)
	}
}

func TestInstanceString(t *testing.T) {
	in := &Instance{Key: K("Fabric", "Timeout"), Value: "30"}
	if got := in.String(); got != `Fabric.Timeout = "30"` {
		t.Errorf("Instance.String() = %q", got)
	}
}

// ParseKey is ParsePattern restricted to concrete keys: on every input
// it accepts, the segments are the pattern's, and it accepts exactly the
// patterns with no variable and no empty name.
func TestParseKeyAgreesWithParsePattern(t *testing.T) {
	for _, s := range []string{
		"Fabric", "Fabric::inst1", "Fabric::inst1.Timeout", "Cloud[2].Tenant::SLB.SecretKey",
		"A::b[3].C", "A[x].B", "A[2", "A::.B", "a.b.c.d.e",
		"", ".", "a..b", "a.", ".a", "$x", "A.$x", "A::$i.B", "A[$n].B", "::i",
	} {
		k, err := ParseKey(s)
		p, perr := ParsePattern(s)
		want := perr == nil && !p.HasVars()
		for _, ps := range p.Segs {
			want = want && ps.Name != ""
		}
		if (err == nil) != want {
			t.Errorf("ParseKey(%q) error = %v, want accepted = %t", s, err, want)
			continue
		}
		if err != nil {
			continue
		}
		if len(k.Segs) != len(p.Segs) {
			t.Errorf("ParseKey(%q) = %d segments, pattern has %d", s, len(k.Segs), len(p.Segs))
			continue
		}
		for i, ps := range p.Segs {
			if got, want := k.Segs[i], (Seg{Name: ps.Name, Inst: ps.Inst, Index: ps.Index}); got != want {
				t.Errorf("ParseKey(%q) segment %d = %+v, want %+v", s, i, got, want)
			}
		}
	}
}
