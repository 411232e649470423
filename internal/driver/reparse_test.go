package driver

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"confvalley/internal/config"
)

// checkReparse holds Reparse of doc, against a parse of base, to the full
// parse of doc — keys, values, sources and line numbers — and reports
// whether the delta was taken. The re-parse is handed a copy of doc that
// is overwritten afterwards, so an instance borrowing from it shows up as
// a mismatch.
func checkReparse(t *testing.T, format, scope string, base, doc []byte) bool {
	t.Helper()
	ctx := context.Background()
	owned := bytes.Clone(base)
	baseIns, _, err := ParseScopedOwned(ctx, format, owned, "fuzz-input", scope, nil)
	if err != nil {
		return false
	}
	d, err := Lookup(format)
	if err != nil {
		t.Fatal(err)
	}
	handed := bytes.Clone(doc)
	got, ok := d.(Reparser).Reparse(owned, baseIns, handed)
	if !ok {
		return false
	}
	scribble(handed)
	want, err := ParseScoped(ctx, format, doc, "fuzz-input", scope)
	if err != nil {
		t.Fatalf("%s: re-parse of %q against %q took what a full parse refuses: %v", format, doc, base, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: re-parse of %q against %q:\n delta: %q\n full:  %q", format, doc, base, renderInstances(got), renderInstances(want))
	}
	checkRevalue(t, baseIns, got)
	if format == "kv" {
		checkProjectedReparse(t, scope, baseIns, base, doc)
	}
	return true
}

// checkProjectedReparse repeats the re-parse against a projected base, as
// the loader does for a program that reads some classes only: the
// projection keeps every other class of the base's full parse. The delta
// must decline or return the projected full parse of doc, and its store
// pass checkRevalue.
func checkProjectedReparse(t *testing.T, scope string, full []*config.Instance, base, doc []byte) {
	t.Helper()
	ctx := context.Background()
	var pats []config.Pattern
	seen := make(map[string]bool)
	for _, in := range full {
		if cp := in.Key.ClassPath(); !seen[cp] {
			seen[cp] = true
			if len(seen)%2 == 1 {
				pats = append(pats, exactPattern(in.Key))
			}
		}
	}
	proj := NewProjection(pats)
	owned := bytes.Clone(base)
	baseIns, _, err := ParseScopedOwned(ctx, "kv", owned, "fuzz-input", scope, proj)
	if err != nil {
		t.Fatalf("kv: a projected parse of %q fails where the full one did not: %v", base, err)
	}
	handed := bytes.Clone(doc)
	got, ok := kvDriver{}.Reparse(owned, baseIns, handed)
	if !ok {
		return
	}
	scribble(handed)
	want, _, err := ParseScopedOwned(ctx, "kv", bytes.Clone(doc), "fuzz-input", scope, proj)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("kv: projected re-parse of %q against %q:\n delta: %q\n full:  %q (%v)", doc, base, renderInstances(got), renderInstances(want), err)
	}
	checkRevalue(t, baseIns, got)
}

// exactPattern is the pattern matching k's class and nothing else.
func exactPattern(k config.Key) config.Pattern {
	p := config.Pattern{Segs: make([]config.PatSeg, len(k.Segs))}
	for i, seg := range k.Segs {
		p.Segs[i].Name = seg.Name
	}
	return p
}

// checkRevalue holds the store a loader builds for an accepted re-parse —
// the base's partition with the re-valued instances swapped in
// (config.Partition.Revalue), adopted by an empty store — to the store
// AddAll builds from the re-parse's instances: the same instances, classes
// and class lists, the same answer to discovery over each of the base's
// classes (exactly, by leaf, and by wildcards of its length), and the same
// diff against the base's store either way. It does the same for a store
// that holds a second source, before and after the re-parse.
func checkRevalue(t *testing.T, baseIns, ins []*config.Instance) {
	t.Helper()
	bp := config.NewPartition(baseIns)
	wp := bp.Revalue(ins)
	var pats []config.Pattern
	seen := make(map[string]bool)
	for _, in := range baseIns {
		if cp := in.Key.ClassPath(); !seen[cp] {
			seen[cp] = true
			exact := exactPattern(in.Key)
			stars := exactPattern(in.Key)
			for i := range stars.Segs {
				stars.Segs[i].Name = "*"
			}
			pats = append(pats, exact, config.Pattern{Segs: exact.Segs[len(exact.Segs)-1:]}, stars)
		}
	}
	// build adds the parts in order, sealing after each when seal is set,
	// so the next one copies on write.
	build := func(seal bool, parts ...any) *config.Store {
		st := config.NewStore()
		for _, p := range parts {
			switch p := p.(type) {
			case *config.Partition:
				st.AddPartition(p)
			case []*config.Instance:
				st.AddAll(p)
			}
			if seal {
				st.Snapshot()
			}
		}
		return st
	}
	second := []*config.Instance{{Key: config.K("Other", "knob"), Value: "1"}}
	if len(baseIns) > 0 {
		second = append(second, baseIns[0]) // a class the batch holds too
	}
	for _, c := range []struct {
		label     string
		got, want *config.Store
		base, was *config.Store
	}{
		{"alone", build(false, wp), build(false, ins), build(false, bp), build(false, baseIns)},
		{"after a second source", build(false, second, wp), build(false, second, ins), build(false, second, bp), build(false, second, baseIns)},
		{"before a second source", build(true, wp, second), build(true, ins, second), build(true, bp, second), build(true, baseIns, second)},
	} {
		got, want := c.got.Snapshot(), c.want.Snapshot()
		if got.Len() != want.Len() || !reflect.DeepEqual(got.Instances(), want.Instances()) {
			t.Fatalf("%s: the revalued store holds %q, AddAll's %q", c.label, renderInstances(got.Instances()), renderInstances(want.Instances()))
		}
		if !reflect.DeepEqual(got.Classes(), want.Classes()) {
			t.Fatalf("%s: the revalued store's classes are %q, AddAll's %q", c.label, got.Classes(), want.Classes())
		}
		for _, cp := range want.Classes() {
			if g, w := got.ClassInstances(cp), want.ClassInstances(cp); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: class %s holds %q in the revalued store, %q in AddAll's", c.label, cp, renderInstances(g), renderInstances(w))
			}
		}
		for _, p := range pats {
			if g, w := got.Discover(p), want.Discover(p); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: Discover(%s) finds %q in the revalued store, %q in AddAll's", c.label, p, renderInstances(g), renderInstances(w))
			}
		}
		base, was := c.base.Snapshot(), c.was.Snapshot()
		for _, dir := range []struct {
			name      string
			got, want config.Delta
		}{
			{"from the base", got.Diff(base), want.Diff(was)},
			{"to the base", base.Diff(got), was.Diff(want)},
		} {
			ga, gr, gm := dir.got.Keys()
			wa, wr, wm := dir.want.Keys()
			if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gm, wm) {
				t.Fatalf("%s: the diff %s differs:\n revalued: +%v -%v ~%v\n AddAll:   +%v -%v ~%v", c.label, dir.name, ga, gr, gm, wa, wr, wm)
			}
		}
	}
}

// edit replaces del bytes of base at at, both clamped to base, with ins,
// in a slice of its own.
func edit(base []byte, at, del int, ins []byte) []byte {
	at = min(at, len(base))
	del = min(del, len(base)-at)
	out := make([]byte, 0, len(base)-del+len(ins))
	out = append(out, base[:at]...)
	out = append(out, ins...)
	return append(out, base[at+del:]...)
}

// reparseXML and reparseKV are the seed documents: every construct an
// edit can land in, each once.
const (
	reparseXML = `<?xml version="1.0"?><r><!-- note --><A Name="n" Type="t" p="1" q='ab' e="" w="a&amp;b">` +
		`<Setting Key="k" Value="v1"><x y="z"/>text</Setting><Setting Key="d" Value="1" Value="2"/>` +
		`<![CDATA[ c ]]><B Type="" Name="m" s="x y"/></A></r>`
	reparseKV = "# note\napp.timeout = 30\r\napp.name = svc  \n\n  a.b = x=y\nlast = 1"
	// A class with several instances, for the store the loader builds
	// from the base's partition with the re-valued ones in their slots.
	reparseXMLRepeat = `<r><A Name="a" p="1"/><A Name="b" p="2"/><B q="0"/><A Name="c" p="3"/></r>`
	reparseKVRepeat  = "x = 1\nx = 2\ny = 0\nx = 3\n"
)

var reparseSeeds = []struct {
	xml, scoped bool
	base        string
	mark        string // the edit starts at the mark's first byte
	off, del    int    // and off bytes further, replacing del bytes
	ins         string
	taken       bool // whether the delta holds for this edit
}{
	// Value edits: longer, shorter, to empty, with the other quote, with
	// edge spaces, at the first and the last value.
	{true, false, reparseXML, `p="1`, 3, 1, "123", true},
	{true, false, reparseXML, `q='ab`, 3, 2, "a", true},
	{true, false, reparseXML, `q='ab`, 3, 2, "", true},
	{true, false, reparseXML, `p="1`, 3, 1, "a'b", true},
	{true, false, reparseXML, `q='ab`, 3, 0, `"`, true},
	{true, false, reparseXML, `s="x y`, 3, 3, " x  ", true},
	{true, false, reparseXML, `Value="v1`, 7, 2, "v2", true},
	{true, true, reparseXML, `Value="v1`, 7, 2, "scoped", true},
	{true, false, reparseXML, `Type="t`, 6, 1, "u", true},
	// Bytes the borrowed value path does not pass.
	{true, false, reparseXML, `p="1`, 3, 1, `a"b`, false},
	{true, false, reparseXML, `p="1`, 3, 1, "a&amp;b", false},
	{true, false, reparseXML, `p="1`, 3, 1, "a&b", false},
	{true, false, reparseXML, `p="1`, 3, 1, "a<b", false},
	{true, false, reparseXML, `p="1`, 3, 1, "a\rb", false},
	{true, false, reparseXML, `p="1`, 3, 1, "\u00e9", false},
	{true, false, reparseXML, `p="1`, 3, 1, "\x01", false},
	{true, false, reparseXML, `q='ab`, 3, 2, "'", false},
	// Values that are not a borrowed, non-empty value.
	{true, false, reparseXML, ` e="`, 4, 0, "1", false},
	{true, false, reparseXML, `w="a`, 3, 1, "z", false},
	{true, false, reparseXML, `Value="1"`, 7, 1, "9", false},
	{true, false, reparseXML, `Value="2"`, 7, 1, "9", true},
	// Names, keys, tags, structure.
	{true, false, reparseXML, `Name="n`, 6, 1, "o", false},
	{true, false, reparseXML, `Name="m`, 6, 1, "o", false},
	{true, false, reparseXML, `Type=""`, 6, 0, "T", false},
	{true, false, reparseXML, `Key="k`, 5, 1, "j", false},
	{true, false, reparseXML, `p="1`, 0, 1, "P", false},
	{true, false, reparseXML, `<B `, 1, 1, "C", false},
	{true, false, reparseXML, `<Setting Key="d"`, 0, 0, `<Setting Key="n" Value="1"/>`, false},
	{true, false, reparseXML, `<Setting Key="d"`, 0, len(`<Setting Key="d" Value="1" Value="2"/>`), "", false},
	{true, false, reparseXML, `p="1"`, 5, 0, ` p="2"`, false},
	// Comments, CDATA, a Setting's skipped subtree, text, the prolog.
	{true, false, reparseXML, `note`, 0, 4, "nope", false},
	{true, false, reparseXML, ` c ]]>`, 1, 1, "d", false},
	{true, false, reparseXML, `y="z`, 3, 1, "w", false},
	{true, false, reparseXML, `text`, 0, 4, "txt", false},
	{true, false, reparseXML, `1.0`, 2, 1, "1", false},
	// The first and last bytes.
	{true, false, reparseXML, `<?xml`, 0, 1, " ", false},
	{true, false, reparseXML, `</r>`, 3, 1, "", false},
	// KV: values.
	{false, false, reparseKV, "= 30", 2, 2, "300", true},
	{false, false, reparseKV, "= 30", 2, 2, "3", true},
	{false, true, reparseKV, "= 30", 2, 2, "45", true},
	{false, false, reparseKV, "= svc", 2, 3, "s v c", true},
	{false, false, reparseKV, "= x=y", 2, 3, "x==y", true},
	{false, false, reparseKV, "= 1", 2, 1, "2", true},
	{false, false, reparseKV, "= 1", 2, 1, "22", true},
	// KV: values that would trim differently or are no value.
	{false, false, reparseKV, "= 30", 2, 2, "", false},
	{false, false, reparseKV, "= 30", 2, 2, " 3", false},
	{false, false, reparseKV, "= 30", 2, 2, "3 ", false},
	{false, false, reparseKV, "= 30", 2, 2, "3\n4", false},
	{false, false, reparseKV, "= 30", 2, 2, "\u00a03", false},
	{false, false, reparseKV, "= 30", 2, 2, "3\u00a0", false},
	{false, false, reparseKV, "= 30", 2, 2, "3\r", false},
	{false, false, reparseKV, "= 1", 2, 1, "1 # c", true},
	// KV: keys, comments, white space, structure, the first byte.
	{false, false, reparseKV, "timeout", 0, 1, "T", false},
	{false, false, reparseKV, "note", 0, 4, "nope", false},
	{false, false, reparseKV, "  a.b", 0, 1, "", false},
	{false, false, reparseKV, "\r\n", 0, 1, "", false},
	{false, false, reparseKV, "last", 0, 0, "x = 1\n", false},
	{false, false, reparseKV, "# note", 0, 1, ";", false},
	// Values in a class with several instances: the first, a middle one,
	// the last, two at once.
	{true, false, reparseXMLRepeat, `p="1`, 3, 1, "9", true},
	{true, true, reparseXMLRepeat, `p="2`, 3, 1, "99", true},
	{false, false, reparseKVRepeat, "x = 3", 4, 1, "0", true},
	{false, true, reparseKVRepeat, "x = 2", 4, 7, "7\ny = 8", true},
}

// FuzzReparse is differential: a delta re-parse of an edited document
// either declines or returns exactly what a full parse of the edited
// bytes returns (checkReparse). An input is a base document and one edit
// of it; the seeds aim the edit at every construct of the two formats.
func FuzzReparse(f *testing.F) {
	for _, s := range reparseSeeds {
		at := strings.Index(s.base, s.mark)
		if at < 0 {
			f.Fatalf("seed mark %q not in its document", s.mark)
		}
		f.Add(s.xml, s.scoped, []byte(s.base), uint16(at+s.off), uint8(s.del), []byte(s.ins))
	}
	f.Fuzz(func(t *testing.T, xml, scoped bool, base []byte, at uint16, del uint8, ins []byte) {
		format, scope := "kv", ""
		if xml {
			format = "xml"
		}
		if scoped {
			scope = "Scope::s"
		}
		checkReparse(t, format, scope, base, edit(base, int(at), int(del), ins))
	})
}

// Each seed edit is taken or declined as its annotation says: the delta
// holds for a value that still reads back by the path the old one did,
// and nowhere else.
func TestReparseSeeds(t *testing.T) {
	for _, s := range reparseSeeds {
		format, scope := "kv", ""
		if s.xml {
			format = "xml"
		}
		if s.scoped {
			scope = "Scope::s"
		}
		at := strings.Index(s.base, s.mark) + s.off
		doc := edit([]byte(s.base), at, s.del, []byte(s.ins))
		if got := checkReparse(t, format, scope, []byte(s.base), doc); got != s.taken {
			t.Errorf("%s: edit %q at %q: re-parse taken = %v, want %v", format, s.ins, s.mark, got, s.taken)
		}
	}
}

// FuzzReparse holds the delta to the full parse when it is taken; this
// holds it to being taken. Documents in the shapes of the benchmark's
// payloads have a few values replaced at random — longer, shorter, empty
// where the format keeps an empty value, with the other quote or inner
// spaces — and every such edit must re-parse.
func TestReparseTakesValueEdits(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	for _, tc := range []struct {
		format, scope string
		doc           []byte
	}{
		{"xml", "", nestedXML(4, 5, 6)},
		{"xml", "Pre::p", nestedXML(3, 3, 3)},
		{"kv", "", flatKV(4, 5, 6)},
		{"kv", "Pre::p", flatKV(3, 3, 3)},
	} {
		ins, _, err := ParseScopedOwned(context.Background(), tc.format, tc.doc, "gen", tc.scope, nil)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 40; trial++ {
			edited := editValues(r, tc.format, tc.doc, ins, 1+r.Intn(4))
			if !checkReparse(t, tc.format, tc.scope, tc.doc, edited) {
				t.Fatalf("%s: a value-only edit was not re-parsed:\n%s", tc.format, edited)
			}
		}
	}
}

// editValues replaces the values of n distinct instances of ins, parsed
// from doc, by random ones the format reads back as they are.
func editValues(r *rand.Rand, format string, doc []byte, ins []*config.Instance, n int) []byte {
	var offs []int
	for _, i := range r.Perm(len(ins))[:n] {
		off, ok := offsetIn(borrow(doc), ins[i].Value)
		if !ok {
			panic("a generated value is not borrowed from its document")
		}
		offs = append(offs, off)
	}
	slices.Sort(offs)
	var out []byte
	from := 0
	for _, off := range offs {
		end := off
		for doc[end] != '"' && doc[end] != '\n' {
			end++
		}
		out = append(append(out, doc[from:off]...), randomValue(r, format)...)
		from = end
	}
	return append(out, doc[from:]...)
}

func randomValue(r *rand.Rand, format string) string {
	const inner = "abcXYZ019.-_:/=> '"
	n := r.Intn(9)
	if format == "kv" {
		n++ // a KV value is never empty
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = inner[r.Intn(len(inner))]
		if format == "kv" && (i == 0 || i == n-1) {
			b[i] = inner[r.Intn(12)] // no edge space
		}
	}
	return string(b)
}
