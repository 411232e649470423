package compiler

import (
	"runtime"
	"strings"
	"testing"

	"confvalley/internal/cpl/parser"
)

// Compiling costs memory linear in nesting depth: a spec under
// parser.MaxDepth nested ifs, namespace blocks or compartment blocks
// compiles in well under 100 MB. (Copying the enclosing conditions,
// namespaces or compartment pattern at every level, and walking every
// if's whole body for its binding variable, allocates over a gigabyte
// for each shape.)
func TestDeepNestingCompilesInLinearSpace(t *testing.T) {
	const n = parser.MaxDepth
	r := strings.Repeat
	for _, c := range []struct{ shape, src string }{
		{"blocks", r("namespace a {\n", n) + "$b -> int\n" + r("}\n", n)},
		{"if", r("if ($a.b -> int)\n", n) + "$a.b -> int\n"},
		{"compartments", r("compartment $a::* {\n", n) + "$b -> int\n" + r("}\n", n)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		prog, err := Compile(c.src)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.shape, err)
		}
		if len(prog.Specs) != 1 {
			t.Fatalf("%s: %d specs, want 1", c.shape, len(prog.Specs))
		}
		sp := prog.Specs[0]
		levels := len(sp.Conds) + len(sp.Namespaces)
		if sp.Compartment != nil {
			levels += len(sp.Compartment.Segs)
		}
		if levels != n {
			t.Fatalf("%s: the spec is under %d blocks, want %d", c.shape, levels, n)
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 100 {
			t.Errorf("%s: compiling %d levels allocated %.0f MB, want under 100", c.shape, n, mb)
		} else {
			t.Logf("%s: %.1f MB", c.shape, mb)
		}
	}
}
