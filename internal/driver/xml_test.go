package driver

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"confvalley/internal/config"
)

// Two parent elements whose keys render alike — A::x[2].B[1] is both the
// first A (named "x[2].B") and the B under the second A (named "x") — must
// not share a sibling counter: each C is the first C under its own parent.
func TestXMLOrdinalsCountPerParentElement(t *testing.T) {
	doc := `<r><A Name="x[2].B"><C q="2"/></A><A Name="x"><B><C q="1"/></B></A></r>`
	ins, err := xmlDriver{}.Parse([]byte(doc), "forged.xml")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, in := range ins {
		got = append(got, in.Key.String()+"="+in.Value)
	}
	want := []string{"A::x[2].B[1].C[1].q=2", "A::x[2].B[1].C[1].q=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
	if segs := ins[1].Key.Segs; segs[2].Index != 1 {
		t.Errorf("second C numbered %d under its own parent, want 1", segs[2].Index)
	}
}

// The top level is one ordinal scope that outlives each top-level element,
// and an attribute-less root's children are numbered in it.
func TestXMLOrdinalsAtTopLevelPersist(t *testing.T) {
	ins, err := xmlDriver{}.Parse([]byte(`<r><A p="1"/></r><A p="2"/><r><A p="3"/></r>`), "top.xml")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, in := range ins {
		got = append(got, in.Key.String())
	}
	want := []string{"A[1].p", "A[2].p", "r[1].A[1].p"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}

// Sibling ordinals are counted in one frame per depth, reset as the next
// element at its depth opens, not per (element, name) pair of the
// document: once the frames of the document's depth exist, numbering the
// children of another thousand clusters of three nodes each allocates
// nothing. The map the frames replaced grew with every element.
func TestXMLOrdinalFramesDoNotGrowWithTheDocument(t *testing.T) {
	var o ordinals
	walk := func() {
		for c := 0; c < 1000; c++ {
			o.next("Cluster")
			o.open()
			for n := 0; n < 3; n++ {
				if got := o.next("Node"); got != n+1 {
					t.Fatalf("node %d of a cluster numbered %d", n+1, got)
				}
				o.open()
				if o.next("Rack") != 1 || o.next("Rack") != 2 || o.next("Disk") != 1 {
					t.Fatal("a node's children counted on from the node before")
				}
				o.close()
			}
			o.close()
		}
	}
	walk()
	if n := testing.AllocsPerRun(5, walk); n != 0 {
		t.Errorf("numbering 4,000 more scope elements made %.0f allocations, want none", n)
	}
}

// nestedXML renders clusters × nodes × settings instances in the nested
// settings form, the shape of the benchmark's Type A payload.
func nestedXML(clusters, nodes, settings int) []byte {
	var b bytes.Buffer
	b.WriteString("<Configuration>\n")
	for c := 0; c < clusters; c++ {
		fmt.Fprintf(&b, "  <Cluster Name=\"c%d\">\n", c)
		for n := 0; n < nodes; n++ {
			fmt.Fprintf(&b, "    <Node Name=\"n%d\">\n", n)
			for s := 0; s < settings; s++ {
				fmt.Fprintf(&b, "      <Setting Key=\"Param%d\" Value=\"%d\"/>\n", s, c*n+s)
			}
			b.WriteString("    </Node>\n")
		}
		b.WriteString("  </Cluster>\n")
	}
	b.WriteString("</Configuration>\n")
	return b.Bytes()
}

// The gain rests on the parse not allocating per instance: names and
// plain values are borrowed from one copy of the document, instances and
// key segments come from slabs. The encoding/xml token loop this replaced
// allocated about sixteen times per instance.
func TestXMLParseAllocations(t *testing.T) {
	doc := nestedXML(20, 25, 20)
	ins, err := xmlDriver{}.Parse(doc, "alloc.xml")
	if err != nil || len(ins) != 10000 {
		t.Fatalf("parsed %d instances, err %v", len(ins), err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := (xmlDriver{}).Parse(doc, "alloc.xml"); err != nil {
			t.Fatal(err)
		}
	})
	if perInstance := allocs / float64(len(ins)); perInstance > 0.05 {
		t.Errorf("%.0f allocations for %d instances: %.3f per instance, want under 0.05", allocs, len(ins), perInstance)
	}
	// Bytes: the document's copy, the slabs and a result slice made once at
	// its final size come to 250 per instance here; grown by append the
	// result slice alone added 23 to that. The owned entry allocates all of
	// that but the copy, which is 45 per instance.
	if perInstance := float64(allocatedBytes(func() {
		if _, err := (xmlDriver{}).Parse(doc, "alloc.xml"); err != nil {
			t.Fatal(err)
		}
	})) / float64(len(ins)); perInstance > 255 {
		t.Errorf("Parse: %.1f bytes allocated per instance, want under 255", perInstance)
	}
	owned := bytes.Clone(doc)
	if perInstance := float64(allocatedBytes(func() {
		if _, err := (xmlDriver{}).ParseOwned(owned, "alloc.xml"); err != nil {
			t.Fatal(err)
		}
	})) / float64(len(ins)); perInstance > 210 {
		t.Errorf("ParseOwned: %.1f bytes allocated per instance, want under 210", perInstance)
	}
}

// cpuBestOf returns the least CPU time this process spent over three runs
// of f. CPU time rather than wall-clock time: a test binary that shares
// its host with others is descheduled now and then, and that is no cost
// of f. The process's CPU time includes the collector's, so each run
// starts from a collected heap: what an earlier run left behind is not
// billed to this one.
func cpuBestOf(f func()) time.Duration {
	best := time.Duration(-1)
	for i := 0; i < 3; i++ {
		runtime.GC() // the previous run's garbage is not this one's to collect
		start := cpuTime()
		f()
		if d := cpuTime() - start; best < 0 || d < best {
			best = d
		}
	}
	return best
}

// cpuTime returns the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// deepXML nests depth scope elements around one setting.
func deepXML(depth int) []byte {
	return []byte("<r>" + strings.Repeat("<a>", depth) + `<Setting Key="k" Value="v"/>` + strings.Repeat("</a>", depth) + "</r>")
}

// Depth is bounded by memory, not by the goroutine stack, and costs CPU
// time linear in the input: four times the depth may not cost sixteen
// times the time. (Rendering the parent key per scope element, as the
// driver used to, is quadratic here and does not finish.)
func TestXMLDeepNestingLinear(t *testing.T) {
	const depth = 100000
	parse := func(doc []byte) []*config.Instance {
		ins, err := xmlDriver{}.Parse(doc, "deep.xml")
		if err != nil {
			t.Fatal(err)
		}
		return ins
	}
	ins := parse(deepXML(depth))
	if len(ins) != 1 || len(ins[0].Key.Segs) != depth+1 || ins[0].Key.Segs[depth-1].Index != 1 {
		t.Fatalf("parsed %d instances, first key %d segments deep", len(ins), len(ins[0].Key.Segs))
	}
	small, large := deepXML(depth/4), deepXML(depth)
	quarter := cpuBestOf(func() { parse(small) })
	full := cpuBestOf(func() { parse(large) })
	if full > 10*quarter+10*time.Millisecond {
		t.Errorf("depth %d took %v, depth %d took %v: not linear", depth/4, quarter, depth, full)
	}
}

// One parent with very many distinct child names: the sibling counters
// must not be searched linearly per child.
func TestXMLManyDistinctChildrenLinear(t *testing.T) {
	wide := func(n int) []byte {
		var b bytes.Buffer
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<c%d v=\"1\"/>", i)
		}
		b.WriteString("</r>")
		return b.Bytes()
	}
	parse := func(doc []byte, want int) {
		ins, err := xmlDriver{}.Parse(doc, "wide.xml")
		if err != nil || len(ins) != want {
			t.Fatalf("parsed %d instances, want %d, err %v", len(ins), want, err)
		}
	}
	const n = 100000
	small, large := wide(n/4), wide(n)
	quarter := cpuBestOf(func() { parse(small, n/4) })
	full := cpuBestOf(func() { parse(large, n) })
	if full > 10*quarter+10*time.Millisecond {
		t.Errorf("%d children took %v, %d took %v: not linear", n/4, quarter, n, full)
	}
}

// Instances borrow from a private copy of the document: Parse leaves the
// caller's buffer as it found it and keeps no reference into it.
func TestXMLInputNotRetainedOrMutated(t *testing.T) {
	doc := []byte(`<Cloud Name="East1" Region="us&amp;east"><Tenant Type="Frontend"><Setting Key="Instances" Value="12"/></Tenant>` +
		"<Setting Key=\"Note\" Value=\"line\r\nbreak\"/></Cloud>")
	orig := append([]byte(nil), doc...)
	ins, err := xmlDriver{}.Parse(doc, "own.xml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, orig) {
		t.Fatal("Parse changed the caller's buffer")
	}
	render := func() []string {
		var out []string
		for _, in := range ins {
			out = append(out, in.String()+" @"+in.Source)
		}
		return out
	}
	before := render()
	for i := range doc {
		doc[i] = 'X'
	}
	if after := render(); !reflect.DeepEqual(before, after) {
		t.Errorf("instances changed when the caller's buffer was overwritten:\nbefore %q\nafter  %q", before, after)
	}
	want := []string{
		`Cloud::East1[1].Region = "us&east" @own.xml`,
		`Cloud::East1[1].Tenant::Frontend[1].Instances = "12" @own.xml`,
		`Cloud::East1[1].Note = "line\nbreak" @own.xml`,
	}
	if !reflect.DeepEqual(before, want) {
		t.Errorf("got %q, want %q", before, want)
	}
}

// Keys are carved from a shared slab; growing one must not reach the next.
func TestXMLKeysDoNotShareCapacity(t *testing.T) {
	ins, err := xmlDriver{}.Parse([]byte(`<r><a x="1" y="2"/></r>`), "clip.xml")
	if err != nil || len(ins) != 2 {
		t.Fatalf("parsed %d instances, err %v", len(ins), err)
	}
	second := ins[1].Key.String()
	_ = append(ins[0].Key.Segs, config.Seg{Name: "clobber"})
	if got := ins[1].Key.String(); got != second {
		t.Errorf("appending to the first key rewrote the second: %q, was %q", got, second)
	}
}
