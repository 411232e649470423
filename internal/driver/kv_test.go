package driver

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"
)

// flatKV renders clusters × nodes × settings instances one per line, the
// shape of the benchmark's Type B data file.
func flatKV(clusters, nodes, settings int) []byte {
	var b bytes.Buffer
	for c := 0; c < clusters; c++ {
		for n := 0; n < nodes; n++ {
			for s := 0; s < settings; s++ {
				fmt.Fprintf(&b, "Cluster::c%d.Node::n%d.Param%d = %d\n", c, n, s, c*n+s)
			}
		}
	}
	return b.Bytes()
}

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The scanner does not allocate per line: names and values are borrowed
// from the document, instances and key segments come from slabs and the
// result slice is made once. The strings.Split loop this replaced
// allocated twice per instance (a key, an instance) and 275 bytes.
func TestKVParseAllocations(t *testing.T) {
	doc := flatKV(20, 25, 20)
	ins, err := kvDriver{}.Parse(doc, "alloc.kv")
	if err != nil || len(ins) != 10000 {
		t.Fatalf("parsed %d instances, err %v", len(ins), err)
	}
	parse := func() {
		if _, err := (kvDriver{}).Parse(doc, "alloc.kv"); err != nil {
			t.Fatal(err)
		}
	}
	if perInstance := testing.AllocsPerRun(5, parse) / float64(len(ins)); perInstance > 0.05 {
		t.Errorf("%.3f allocations per instance, want under 0.05", perInstance)
	}
	// Bytes: the slabs, the result slice and each instance's class number
	// (4 bytes, which the partition is sorted by) come to 213 per instance
	// here, which is all the owned entry allocates; the copying entry adds
	// the document's 35.
	if perInstance := float64(allocatedBytes(parse)) / float64(len(ins)); perInstance > 250 {
		t.Errorf("Parse: %.1f bytes allocated per instance, want under 250", perInstance)
	}
	owned := bytes.Clone(doc)
	if perInstance := float64(allocatedBytes(func() {
		if _, err := (kvDriver{}).ParseOwned(owned, "alloc.kv"); err != nil {
			t.Fatal(err)
		}
	})) / float64(len(ins)); perInstance > 215 {
		t.Errorf("ParseOwned: %.1f bytes allocated per instance, want under 215", perInstance)
	}
}

// A scoped load parses into keys that start with the scope: on the
// 10,000-line document, ParsePartition under a scope makes about as many
// allocations as without one, not one key per instance more.
func TestScopedParseAllocations(t *testing.T) {
	doc := flatKV(20, 25, 20)
	ctx := context.Background()
	allocs := func(scope string) float64 {
		return testing.AllocsPerRun(5, func() {
			ins, _, err := ownedInstances(ctx, "kv", doc, "alloc.kv", scope, nil)
			if err != nil || len(ins) != 10000 {
				t.Fatalf("parsed %d instances, err %v", len(ins), err)
			}
		})
	}
	plain, scoped := allocs(""), allocs("Sc")
	if scoped > plain+10 {
		t.Errorf("a scoped parse made %.0f allocations, an unscoped one %.0f: want about as many", scoped, plain)
	}
}
