package config

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

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

// refSeg, refPrefix and refClassPath are the renderings as they were
// written before the single-buffer versions (one string per segment and a
// join); the output format is an on-disk and on-wire contract (violation
// keys, diff keys, compartment identities), so the fast versions are held
// to them byte for byte.
func refSeg(s Seg) string {
	switch {
	case s.Inst != "" && s.Index > 0:
		return s.Name + "::" + s.Inst + "[" + strconv.Itoa(s.Index) + "]"
	case s.Inst != "":
		return s.Name + "::" + s.Inst
	case s.Index > 0:
		return s.Name + "[" + strconv.Itoa(s.Index) + "]"
	default:
		return s.Name
	}
}

func refPrefix(k Key, n int) string {
	if n > len(k.Segs) {
		n = len(k.Segs)
	}
	parts := make([]string, n)
	for i := 0; i < n; i++ {
		parts[i] = refSeg(k.Segs[i])
	}
	return strings.Join(parts, ".")
}

func refClassPath(k Key) string {
	parts := make([]string, len(k.Segs))
	for i, s := range k.Segs {
		parts[i] = s.Name
	}
	return strings.Join(parts, ".")
}

func TestKeyRenderingsMatchReference(t *testing.T) {
	long := strings.Repeat("x", 2*renderScratch) // spills the stack scratch
	shapes := []Seg{
		{Name: "Cloud"},
		{Name: "Cloud", Inst: "East1"},
		{Name: "Cloud", Index: 12},
		{Name: "Cloud", Inst: "East1", Index: 1234567},
		{Name: "Cloud", Index: -3}, // not replicated: no ordinal rendered
		{Name: "A::b"},             // renders like {A, b}
		{Name: "A", Inst: "b"},     //
		{Name: "dotted.name", Inst: "i.j"},
		{Name: ""},
		{Name: long, Inst: long, Index: 7},
	}
	keys := []Key{{}, {Segs: shapes}}
	for i := range shapes {
		keys = append(keys, Key{Segs: shapes[i : i+1]}, Key{Segs: shapes[:i]})
	}
	for _, s := range shapes {
		if got, want := s.String(), refSeg(s); got != want {
			t.Errorf("Seg%+v.String() = %q, want %q", s, got, want)
		}
	}
	for _, k := range keys {
		if got, want := k.String(), refPrefix(k, len(k.Segs)); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		if got, want := k.ClassPath(), refClassPath(k); got != want {
			t.Errorf("ClassPath() = %q, want %q", got, want)
		}
		for n := 0; n <= len(k.Segs)+2; n++ {
			if got, want := k.PrefixString(n), refPrefix(k, n); got != want {
				t.Errorf("PrefixString(%d) = %q, want %q", n, got, want)
			}
		}
	}
}

var renderSink string // keeps the rendered strings escaping, as they do in real callers

// A key that fits the scratch buffer renders in exactly one allocation:
// the returned string.
func TestKeyRenderingsAllocateOnce(t *testing.T) {
	k := K("CloudGroup::East1", "Cloud::S1[2]", "Tenant[1]", "MonitorNodeHealth")
	for name, f := range map[string]func(){
		"String":       func() { renderSink = k.String() },
		"PrefixString": func() { renderSink = k.PrefixString(2) },
		"ClassPath":    func() { renderSink = k.ClassPath() },
		"Seg.String":   func() { renderSink = k.Segs[1].String() },
	} {
		if got := testing.AllocsPerRun(100, f); got != 1 {
			t.Errorf("%s: %v allocations per call, want 1", name, got)
		}
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
// patterns with no variable, no empty name and no NUL byte in a name.
func TestParseKeyAgreesWithParsePattern(t *testing.T) {
	inputs := []string{
		"Fabric", "Fabric::inst1", "Fabric::inst1.Timeout", "Cloud[2].Tenant::SLB.SecretKey",
		"A::b[3].C", "A[x].B", "A[2", "A::.B", "a.b.c.d.e",
		"", ".", "a..b", "a.", ".a", "$x", "A.$x", "A::$i.B", "A[$n].B", "::i",
		"$", "A::$.B", "A[$].B", "A::b[$i]", "$x::y", "$x[$i]", "A[1]::b.C", "A::b[]", "A[]", "A[1]x", "A::b::c[2]",
		"\x00", "a\x00b.c", "a.b\x00c", "A::x\x00y.B", "A[\x00].B",
	}
	// And short strings over the grammar's own bytes, drawn at random.
	rng := rand.New(rand.NewSource(1))
	const alphabet = "Ab.:[]$1\x00"
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(10))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		inputs = append(inputs, string(b))
	}
	for _, s := range inputs {
		k, err := ParseKey(s)
		p, perr := ParsePattern(s)
		want := perr == nil && !p.HasVars()
		for _, ps := range p.Segs {
			want = want && ps.Name != "" && !strings.Contains(ps.Name, "\x00")
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
