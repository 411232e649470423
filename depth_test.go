package confvalley

import (
	"os"
	"path/filepath"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/parser"
	"confvalley/internal/infer"
)

// nesting measures how many nodes deep a statement's AST goes.
func nesting(n ast.Node) int {
	deepest := 0
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		deepest = max(deepest, nesting(c))
		return false
	})
	return deepest + 1
}

// The parser's nesting bound (parser.MaxDepth) is far above real use: the
// shipped specifications and the inferred Type A suite nest a few levels.
func TestRealSpecsNestFarBelowTheBound(t *testing.T) {
	a := azuregen.GenerateA(0.02, 2015)
	suites := map[string]string{"inferred Type A": infer.Infer(a.Store, infer.Defaults()).GenerateCPL()}
	files, err := filepath.Glob("specs/*.cpl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no specs/*.cpl: %v", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		suites[name] = string(b)
	}
	for name, src := range suites {
		stmts, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		deepest := 0
		for _, s := range stmts {
			deepest = max(deepest, nesting(s))
		}
		t.Logf("%s: %d statements, the deepest %d AST nodes deep", name, len(stmts), deepest)
		if deepest*100 > parser.MaxDepth {
			t.Errorf("%s nests %d levels, within a hundredth of the bound %d", name, deepest, parser.MaxDepth)
		}
	}
}
