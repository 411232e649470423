package driver

// Never-panic contract of the format drivers: whatever bytes a torn
// write, a hostile file, or a flaky endpoint delivers, Parse returns
// (instances, error) — it does not panic. The seeds bake in the hostile
// shapes the fault-injection work surfaced: truncated documents, invalid
// UTF-8, deep nesting, bare delimiters, and empty input. CI runs each
// fuzzer briefly (go test -fuzz) on top of the seed corpus.

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"confvalley/internal/config"
)

// checkParse runs one driver over one input, failing the fuzz run on a
// panic (the recover here is only to attach the offending input; without
// it the panic would still fail the run but without context).
func checkParse(t *testing.T, name string, d interface {
	Parse([]byte, string) ([]*config.Instance, error)
}, data []byte) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s driver panicked on %q: %v", name, data, r)
		}
	}()
	ins, err := d.Parse(data, "fuzz-input")
	if err != nil {
		return
	}
	// On success every instance must be well-formed enough to validate.
	for _, in := range ins {
		if in == nil {
			t.Fatalf("%s driver returned a nil instance for %q", name, data)
		}
		if in.Key.String() == "" {
			t.Fatalf("%s driver returned an instance with an empty key for %q", name, data)
		}
		for _, s := range in.Key.Segs {
			if err := config.CheckName(s.Name); err != nil {
				t.Fatalf("%s driver returned key %q for %q: %v", name, in.Key, data, err)
			}
		}
	}
}

func commonSeeds(f *testing.F) {
	for _, seed := range commonData {
		f.Add([]byte(seed))
	}
}

var commonData = []string{"", "\x00\x01\x02", "\xff\xfe invalid utf8 \xc3\x28", strings.Repeat("a", 1<<12), "\n\n\n", "=", " = "}

func FuzzINI(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("[db]\nport = 5432\n"))
	f.Add([]byte("[unclosed"))
	f.Add([]byte("novalue"))
	f.Add([]byte("= bare"))
	f.Add([]byte("[a]\nk = 'quoted'\n"))
	f.Add([]byte("[a]\nk = \"half"))
	f.Add([]byte("[]\nk = v\n"))
	f.Add([]byte("; comment only\n# and another\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "ini", iniDriver{}, data)
	})
}

// FuzzKV is differential: on every input the index-walking scanner and
// the strings.Split oracle return the same error text or the same
// instances, line numbers included. The seeds after the first five walk
// what the scanner does by hand: line ends, trimming, the key grammar.
// pats is a projection, one pattern per line: the projected parse must
// be the full parse filtered by it (diffProjected).
func FuzzKV(f *testing.F) {
	for _, seed := range commonData {
		f.Add([]byte(seed), "")
	}
	f.Add([]byte("port = 8080\n"), "port")
	f.Add([]byte("a.b.c = deep\n"), "a.b.c")
	f.Add([]byte("key with spaces = v\n"), "key*")
	f.Add([]byte("k =\n= v\n"), "k")
	f.Add([]byte("$="), "") // regression: parsed to an instance with an empty key
	for _, seed := range kvSeeds {
		f.Add([]byte(seed), "")
	}
	for _, seed := range projectionSeeds {
		f.Add([]byte(seed[0]), seed[1])
	}
	f.Fuzz(func(t *testing.T, data []byte, pats string) {
		checkParse(t, "kv", kvDriver{}, data)
		diffKV(t, data)
		diffProjected(t, data, pats)
	})
}

// projectionSeeds pair a document with a projection: leaf and path
// patterns, wildcards, instance and ordinal constraints (ignored), keys
// of other lengths, and an error after a dropped line.
var projectionSeeds = [][2]string{
	{"a.b = 1\nc.b = 2\nb = 3\nx.y = 4\n", "b"},
	{"C::c1.N[2].T = 1\nC::c2.N[1].T = 2\nC.M = 3\n", "C::c9.N[7].T"},
	{"A.Timeout = 1\nB.Retry = 2\nA.B.Timeout = 3\n", "*out\nA.*"},
	{"a.b = 1\nz.q = 2\nnovalue\n", "a.b"},
	{"a.b = 1\nz..q = 2\n", "a.b"},
	{"S.a = 1\na = 2\n", "Sc.a\nS.a"},
	{"x = 1\n", ""},
}

var kvSeeds = []string{
	// Line ends: none, CRLF, lone CR, blank runs, an error on the last line.
	"a = 1", "a = 1\r\nb = 2\r\n", "a = 1\rb = 2\n", "\n\n a = 1 \n\n\n b = 2", "a = 1\nb = 2\nnovalue", "a = 1\n\n\nx..y = 2\n",
	// Comments and what only looks like one.
	"# c\na = 1\n  # indented\nb = 2 # kept\n", "; not a comment\n", "#", "a # b = c\n",
	// Trimming: Unicode spaces around lines, keys and values.
	"\u00a0a\u2003=\u3000v\u0085\n", "\t a.b \t = \t v \t\n", "\v\f a = 1 \v\f\n", "a = \xa0\n", "a\x00 = \x00\n",
	// The equals sign: first one splits, none is an error, nothing either side.
	"a = b = c\n", "a==\n", "=\n", "a =\n", " = v\n", "novalue\n", "a.b\n",
	// The key grammar: instances, ordinals, variables, empty segments.
	"Cluster::c1.Node::n3[2].Timeout = 30\n", "A[1].B[x].C[] = 1\n", "A::.B = 1\n", "A::b::c.D = 1\n", "A[1][2] = 1\n", "A::b[1]x = 1\n",
	"a..b = 1\n", ".a = 1\n", "a. = 1\n", ". = 1\n", "$a = 1\n", "a.$b = 1\n", "A::$i.b = 1\n", "A[$i].b = 1\n", "$A::x.b = 1\n", "a . b = 1\n",
	"\u00e9.\u4e16\u754c = \u00e9\n", "a.\xff = \xc3\n",
}

func FuzzCSV(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("name,value\ntimeout,30\n"))
	f.Add([]byte("name,value\ntimeout\n"))          // short row
	f.Add([]byte("a,b,c\n1,2,3,4\n"))               // long row
	f.Add([]byte("\"unterminated,quote\n"))         // bad quoting
	f.Add([]byte("name,value\r\ntimeout,30\r\n"))   // CRLF
	f.Add([]byte("name,value\n\"a\"\"b\",\"c,d\"")) // escaped quotes
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "csv", csvDriver{}, data)
	})
}

func FuzzYAML(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte("svc:\n  mode: fast\n"))
	f.Add([]byte("svc:\n- a\n- b\n"))
	f.Add([]byte("a:\n  b:\n    c:\n      d: deep\n"))
	f.Add([]byte("svc:\n\tmode: tab-indent\n"))
	f.Add([]byte("key: [inline, flow"))
	f.Add([]byte("- - - - nested\n"))
	f.Add([]byte(":\n"))
	f.Add([]byte("a: |\n  block\n  scalar\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "yaml", yamlDriver{}, data)
	})
}

func FuzzJSON(f *testing.F) {
	commonSeeds(f)
	f.Add([]byte(`{"app": {"timeout": "30"}}`))
	f.Add([]byte(`{"app":`))
	f.Add([]byte(`{"a": [1, {"b": null}, true]}`))
	f.Add([]byte(`{"":""}`)) // regression: empty member name became an empty key
	f.Add([]byte(`{"a": "` + strings.Repeat(`\u0000`, 64) + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "json", jsonDriver{}, data)
	})
}

// FuzzXML is differential: on every input the hand-rolled scanner and
// the strict encoding/xml oracle both accept or both reject, and on accept
// they return the same instances. The seeds walk the strict-mode rules
// the scanner re-implements.
func FuzzXML(f *testing.F) {
	commonSeeds(f)
	for _, seed := range xmlSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkParse(t, "xml", xmlDriver{}, data)
		diffXML(t, data)
	})
}

// diffXML holds the driver to the oracle's verdict and instances on data.
func diffXML(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := xmlDriver{}.Parse(data, "fuzz-input")
	want, wantErr := xmlOracle{}.Parse(data, "fuzz-input")
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %q:\n scanner: %v\n oracle:  %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instances differ on %q:\n scanner: %v\n oracle:  %v", data, got, want)
	}
}

var xmlSeeds = []string{
	`<configuration><add key="a" value="1"/></configuration>`,
	`<a><b></a></b>`, // mismatched tags
	`<a attr="unterminated`,
	`<?xml version="1.0"?><a/>`,
	// Listing 1 of the paper.
	`<CloudGroup Name="Storage"><Cloud Name="East1Storage1">
  <MonitorNodeHealth><Setting Key="RepairTimeout" Value="300"/></MonitorNodeHealth>
  <Tenant Type="Frontend" Region="East"><Setting Key="Instances" Value="12"/></Tenant>
</Cloud></CloudGroup>`,
	// End tags: unclosed, stray, spaced, junk before '>'.
	`<a><b>`, `<a>`, `</a>`, `<a></a></a>`, `<a></a >`, `<a></a x>`, `<a></ a>`, `<a/ >`, `<a x="1"/><b`, `<`, `</`, `<a`,
	// Attributes: unquoted, valueless, spaced, adjacent, duplicated.
	`<a x=1/>`, `<a x/>`, `<a x = '1' y = "2"/>`, `<a x="1"y="2"/>`, `<a x="1" x="2"/>`, `<a ="1"/>`, `<a x=/>`,
	`<r><A Name="n" Name="m" Type="t" p="1"/></r>`, `<r><A Name="" Type="t" Name="m"/></r>`, `<r><A Type="" Name=""/></r>`,
	// Namespaces and colons.
	`<p:a xmlns:p="urn:x" p:k="v"><p:b Name="n" xmlns="urn:y"/></p:a>`, `<p:a></q:a>`, `<p:a></a>`, `<a></p:a>`,
	`<a:b:c/>`, `<:a x="1"></:a>`, `<a: x="1"></a:>`, `<: x="1"/>`, `<a x:y:z="1"/>`, `<a :x="1" y:="2"/>`, `<r><xml:a xmlns:Name="n" q="1"/></r>`,
	// Names: bad starts, non-ASCII.
	`<1a/>`, `<-a/>`, `<.a/>`, `<a 1x="1"/>`, `<a.b-c_d x="1"/>`, "<\u00e9l\u00e9ment cl\u00e9=\"valeur \u00e9\"/>", "<a\u00d7 x=\"1\"/>", "<a \u00b7x=\"1\"/>", "<a\xff x=\"1\"/>",
	"<r><a x=\"\xc3\"/></r>", "<r><a x=\"\u4e16\u754c\ufffd\"/></r>", "<r><a x=\"\uffff\"/></r>", "<r><a x=\"\xed\xa0\x80\"/></r>", "<r>\u00e9\xc3</r>",
	// References.
	`<r><a x="&lt;&#65;&#x41;&gt;&amp;&apos;&quot;"/></r>`, `<r><a x="&bogus;"/></r>`, `<r><a x="&#0;"/></r>`, `<r><a x="&#xD800;"/></r>`, `<r><a x="&#xFFFE;"/></r>`,
	`<r><a x="&#x110000;"/></r>`, `<r><a x="&#99999999999999999999;"/></r>`, `<r><a x="&amp"/></r>`, `<r><a x="&"/></r>`, `<r><a x="&;"/></r>`, `<r><a x="&#;"/></r>`, `<r><a x="&#x;"/></r>`,
	`<r><a x="&#X41;"/></r>`, `<r><a x="&#13;&#10;"/></r>`, "<r><a x=\"&\u00e9;\"/></r>", `<r>&lt;&#65;&bogus;</r>`, `<r>&#0;</r>`, `<r>&#xD800;</r>`, `<r>&amp</r>`, `<r>a & b</r>`, `&amp;`, `&`, `&#x41`,
	// Line ends and stray markup characters in values and text.
	"<r><a x=\"1\r\n2\r3\n4\r\r\n\"/></r>", "<r><a x=\"\r&amp;\n\"/></r>", "<r>\r\n\r</r>", `<r><a x="a<b"/></r>`, `<r><a x="a>b"/></r>`, `<r><a x='"' y="'"/></r>`,
	`<r>a ]]> b</r>`, `<r><a x="]]>"/></r>`, `<r>]]&gt;]]</r>`, `<r>]]<!-- -->></r>`,
	// CDATA, comments, directives, processing instructions.
	`<r><![CDATA[ <not> &markup; ]]]]><a x="1"/></r>`, `<r><![CDATA[`, `<r><![CDATA[ ]]`, `<r><![CDAT[]]></r>`, "<r><![CDATA[\x01]]></r>", "<r><![CDATA[\xff]]></r>", `<![CDATA[top]]>`,
	`<r><!-- a -- b --></r>`, `<r><!---></r>`, `<r><!----></r>`, `<r><!-- a ---></r>`, `<r><!- a --></r>`, `<r><!-- <a x="1"/> --><b y="2"/></r>`, "<!-- \x00\xff --><a x='1'/>",
	`<!DOCTYPE r [ <!ENTITY e "q'>'"> <!-- " ' > --> <!ELEMENT r ANY> ]><r><a x="1"/></r>`, `<!DOCTYPE r "unclosed><r/>`, `<!DOCTYPE r [ <!-- unclosed ]><r/>`, `<!>><r x="1"/>`, `<!"><r x="1"/>`, `<!x <!-x> <!--x--> > <r x="1"/>`, `<!`,
	`<?xml version="1.1"?><a x="1"/>`, `<?xml version="1.0" encoding="latin1"?><a x="1"/>`, `<?xml version='1.0' encoding='Utf-8'?><a x="1"/>`, `<a><?xml encoding="x"?></a>`,
	`<?xml?><a x="1"/>`, `<?xml version=1.1?><a x="1"/>`, `<?xml xversion="2.0"?><a x="1"/>`, `<?php echo "?"; ?><a x="1"/>`, `<??>`, `<?a`, `<?a ?`, `<?1a?>`,
	// Settings.
	`<r><Setting Key="k" Value="v"><x><y z="1"/></x>text</Setting><Setting Key="k2"/></r>`, `<r><Setting Key="k"><x></Setting></r>`, `<r><Setting Value="v"/></r>`, `<r><Setting Key="" Value="v"/></r>`,
	`<r><Setting Key="a" Key="b" Value="1" Value="2"/></r>`, `<Setting Key="root" Value="1"/>`, `<Setting Key="root" Value="1"><a/>`, `<r><p:Setting p:Key="k" q:Value="v"/></r>`,
	// Document shapes.
	`<a x="1"/><b y="2"/><a z="3"/>`, `<r><a x="1"/></r><a y="2"/><r><a z="3"/></r>`, `<r x="1"><r x="2"><r x="3"/></r></r>`, `just text`, ` <a x="1"/> trailing`, "\xef\xbb\xbf<a x=\"1\"/>",
	"<a x=\"\x01\"/>", "<a>\x02</a>", "<a\x00/>", "<a x=\"1\"\x00/>", "<r><a x=\"\x7f\"/></r>",
	// Sibling ordinals are per parent element, whatever the parents' keys render as.
	`<r><A Name="x[2].B"><C q="2"/></A><A Name="x"><B><C q="1"/></B></A></r>`,
}

// The never-panic contract holds for every registered driver over a
// shared corpus of hostile inputs — a quick deterministic sweep that runs
// on every plain `go test`, complementing the fuzzers above.
func TestDriversNeverPanicOnHostileCorpus(t *testing.T) {
	corpus := [][]byte{
		nil,
		[]byte(""),
		[]byte("\x00"),
		[]byte("\xff\xfe\xfd"),
		[]byte("{"), []byte("["), []byte("<"), []byte("'"), []byte("\""),
		[]byte(strings.Repeat("[", 1024)),
		[]byte(strings.Repeat("a:\n ", 256)),
		[]byte(strings.Repeat(`{"a":`, 128)),
		[]byte("k\x00ey = va\x00lue"),
	}
	drivers := map[string]interface {
		Parse([]byte, string) ([]*config.Instance, error)
	}{
		"ini": iniDriver{}, "kv": kvDriver{}, "csv": csvDriver{},
		"yaml": yamlDriver{}, "json": jsonDriver{}, "xml": xmlDriver{},
	}
	for name, d := range drivers {
		for _, data := range corpus {
			checkParse(t, name, d, data)
			if !utf8.Valid(data) {
				// Also exercise the scoped path drivers share.
				checkParse(t, name, d, append([]byte("scope."), data...))
			}
		}
	}
}
