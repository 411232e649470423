package driver

import (
	"context"
	"strings"
	"testing"

	"confvalley/internal/config"
)

func TestXMLRootWithAttributesIsKept(t *testing.T) {
	// A root element carrying attributes is a real scope, not a
	// container.
	ins := mustParse(t, "xml", `<Cluster Name="c1" Region="east"><Setting Key="X" Value="1"/></Cluster>`)
	if in := findByKey(ins, "Cluster::c1[1].X"); in == nil {
		for _, i2 := range ins {
			t.Logf("  %s", i2)
		}
		t.Fatal("attributed root lost")
	}
	if in := findByKey(ins, "Cluster::c1[1].Region"); in == nil || in.Value != "east" {
		t.Errorf("root attribute param: %v", in)
	}
}

func TestXMLMultipleTopLevelElements(t *testing.T) {
	// Listing 1's shape: sibling CloudGroups with no document wrapper.
	ins := mustParse(t, "xml", `
<CloudGroup Name="A"><Setting Key="K" Value="1"/></CloudGroup>
<CloudGroup Name="B"><Setting Key="K" Value="2"/></CloudGroup>`)
	if len(ins) != 2 {
		t.Fatalf("instances = %d", len(ins))
	}
	if in := findByKey(ins, "CloudGroup::B[2].K"); in == nil || in.Value != "2" {
		t.Errorf("second top-level group: %v", in)
	}
}

func TestYAMLDeepNesting(t *testing.T) {
	ins := mustParse(t, "yaml", `
a:
  b:
    c: deep
  d: shallow
top: value
`)
	if in := findByKey(ins, "a[1].b[1].c"); in == nil || in.Value != "deep" {
		for _, i2 := range ins {
			t.Logf("  %s", i2)
		}
		t.Errorf("deep key: %v", in)
	}
	if in := findByKey(ins, "a[1].d"); in == nil || in.Value != "shallow" {
		t.Errorf("sibling after deeper block: %v", in)
	}
	if in := findByKey(ins, "top"); in == nil {
		t.Errorf("top-level key lost")
	}
}

func TestYAMLErrors(t *testing.T) {
	d, _ := Lookup("yaml")
	for _, bad := range []string{
		"novalue",
		"- bare\n",
		"key:\n  -\n",
	} {
		if _, err := d.Parse([]byte(bad), "s"); err == nil {
			t.Errorf("input %q should error", bad)
		}
	}
}

func TestKVErrors(t *testing.T) {
	d, _ := Lookup("kv")
	for _, bad := range []string{"noequals", "bad..key = 1"} {
		if _, err := d.Parse([]byte(bad), "s"); err == nil {
			t.Errorf("input %q should error", bad)
		}
	}
}

func TestCSVRaggedRows(t *testing.T) {
	d, _ := Lookup("csv")
	// encoding/csv rejects ragged rows.
	if _, err := d.Parse([]byte("A,B\n1\n"), "s"); err == nil {
		t.Error("ragged csv should error")
	}
}

func TestJSONNullAndFloat(t *testing.T) {
	ins := mustParse(t, "json", `{"a": null, "b": 1.25, "c": 3}`)
	if in := findByKey(ins, "a"); in == nil || in.Value != "" {
		t.Errorf("null leaf: %v", in)
	}
	if in := findByKey(ins, "b"); in == nil || in.Value != "1.25" {
		t.Errorf("float leaf: %v", in)
	}
	if in := findByKey(ins, "c"); in == nil || in.Value != "3" {
		t.Errorf("integral float renders as int: %v", in)
	}
}

func TestScopePrefixWithInstance(t *testing.T) {
	st := config.NewStore()
	if _, err := LoadInto(st, "kv", []byte("Timeout = 9"), "s", "Fabric::west1"); err != nil {
		t.Fatal(err)
	}
	got := st.Discover(config.P("Fabric::west1", "Timeout"))
	if len(got) != 1 {
		t.Fatalf("scoped instance load: %v", got)
	}
	if got[0].Key.Segs[0].Inst != "west1" {
		t.Errorf("instance lost: %+v", got[0].Key.Segs[0])
	}
}

func TestDuplicateDriverRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(xmlDriver{})
}

func TestLoCByFormat(t *testing.T) {
	byFormat := LoCByFormat()
	if len(byFormat) < 7 {
		t.Fatalf("formats = %v", byFormat)
	}
	total := 0
	for f, n := range byFormat {
		if n < 10 {
			t.Errorf("%s LoC = %d, implausible", f, n)
		}
		total += n
	}
	if total < 200 {
		t.Errorf("total driver LoC = %d", total)
	}
	if !strings.Contains(strings.Join(Names(), ","), "yaml") {
		t.Error("yaml driver missing")
	}
}

func TestINIQuoteStripping(t *testing.T) {
	// Exactly one balanced surrounding pair is removed; anything else is
	// kept verbatim. The old strings.Trim(val, `"`) stripped whole quote
	// runs, mangling quoted-empty and quote-bearing values.
	cases := []struct {
		raw, want string
	}{
		{`"quoted"`, `quoted`}, // plain quoted value
		{`plain`, `plain`},     // unquoted untouched
		{`""`, ``},             // quoted empty string
		{`""""`, `""`},         // quoted literal `""`
		{`"a""b"`, `a""b`},     // inner quotes survive
		{`"""`, `"`},           // balanced outer pair of `"`
		{`""x`, `""x`},         // unbalanced: leading run kept
		{`x""`, `x""`},         // unbalanced: trailing run kept
		{`"`, `"`},             // lone quote kept
		{`"a" "b"`, `a" "b`},   // outer pair only
		{``, ``},               // empty stays empty
	}
	for _, c := range cases {
		ins := mustParse(t, "ini", "k = "+c.raw+"\n")
		if len(ins) != 1 {
			t.Fatalf("%q: parsed %d instances", c.raw, len(ins))
		}
		if ins[0].Value != c.want {
			t.Errorf("ini value %s: got %q, want %q", c.raw, ins[0].Value, c.want)
		}
	}
}

// A NUL byte in a name is refused where the name is read. The store joins
// a class's names with NUL, so a.b\x00c and a\x00b.c would otherwise share
// one class — and discovering either would find instances of the other or
// miss its own. XML cannot spell a NUL at all; that is pinned too.
func TestNULInNameRefused(t *testing.T) {
	for _, tc := range []struct{ format, doc, scope string }{
		{"kv", "a\x00b.c = 1\n", ""},
		{"kv", "a.b\x00c = 1\n", ""},
		{"ini", "[a\x00b]\nc = 1\n", ""},
		{"ini", "[a]\nb\x00c = 1\n", ""},
		{"json", `{"a\u0000b": {"c": 1}}`, ""},
		{"json", `{"a": {"b\u0000c": 1}}`, ""},
		{"yaml", "a\x00b:\n  c: 1\n", ""},
		{"yaml", "a:\n  b\x00c: 1\n", ""},
		{"csv", "a\x00b,c\n1,2\n", ""},
		{"csv", "#class R\x00w\na,b\n1,2\n", ""},
		{"kv", "c = 1\n", "a\x00b"},
		{"xml", "<a\x00b><Setting Key=\"c\" Value=\"1\"/></a\x00b>", ""},
		{"xml", "<a b\x00c=\"1\"/>", ""},
		{"xml", "<a><Setting Key=\"b&#0;c\" Value=\"1\"/></a>", ""},
		{"xml", "<a><Setting Key=\"b\x00c\" Value=\"1\"/></a>", ""},
	} {
		ins, err := ParseScoped(context.Background(), tc.format, []byte(tc.doc), "nul", tc.scope)
		if err == nil {
			t.Errorf("%s %q (scope %q): parsed to %v, want an error", tc.format, tc.doc, tc.scope, ins)
		}
	}
	// A NUL in a value, or in an instance name, is data, not a name.
	for _, tc := range []struct{ format, doc string }{
		{"kv", "a.b = x\x00y\n"},
		{"kv", "a::x\x00y.b = 1\n"},
		{"json", `{"a": {"Name": "x\u0000y", "b": "1"}}`},
	} {
		if _, err := ParseScoped(context.Background(), tc.format, []byte(tc.doc), "nul", ""); err != nil {
			t.Errorf("%s %q: %v", tc.format, tc.doc, err)
		}
	}
}
