package parser

import (
	"errors"
	"runtime/debug"
	"strings"
	"testing"

	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
)

// deepSources returns one source per way CPL nests, each nested n levels
// deep as the parser counts them.
func deepSources(n int) map[string]string {
	r := strings.Repeat
	return map[string]string{
		"parens":     "$a.b -> " + r("(", n) + "int" + r(")", n),
		"or":         "$a.b -> int" + r(" | int", n),
		"and":        "$a.b -> int" + r(" & int", n),
		"not":        "$a.b -> " + r("~", n) + "int",
		"quantifier": "$a.b -> " + r("all (", n/2) + r("~", n%2) + "int" + r(")", n/2),
		"sum":        "$a.b" + r(" + $a.b", n) + " -> int",
		"product":    "$a.b" + r(" * $a.b", n) + " -> int",
		"domain":     r("(", n) + "$a.b" + r(")", n) + " -> int",
		"transform":  r("lower(", n) + "$a.b" + r(")", n) + " -> nonempty",
		"blocks":     r("namespace a {\n", n) + "$b -> int\n" + r("}\n", n),
		"if":         r("if ($a.b -> int)\n", n) + "$a.b -> int\n",
		"if-pred":    "$a.b -> " + r("if (int) ", n) + "int",
		// Each operator of a chain pushes the chain so far one level
		// down, and the operands after the first sit one level below it.
		"or-of-ands":   "$a.b -> int" + r(" & int", n/2) + r(" | int", n-n/2),
		"or-of-parens": "$a.b -> int | " + r("(", n-1) + "int" + r(")", n-1),
	}
}

// A spec nested exactly MaxDepth levels parses, and walks, within a 64 MB
// stack; one level deeper is a positioned parse error, however it nests.
func TestNestingBound(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	for shape, src := range deepSources(MaxDepth) {
		stmts, err := Parse(src)
		if err != nil {
			t.Errorf("%s at the bound: %v", shape, err)
			continue
		}
		for _, s := range stmts {
			nodes := 0
			ast.Inspect(s, func(ast.Node) bool { nodes++; return true })
			if nodes < 2 || ast.Render(s) == "" {
				t.Errorf("%s: %d nodes, rendering %q", shape, nodes, ast.Render(s))
			}
		}
	}
	for shape, src := range deepSources(MaxDepth + 1) {
		_, err := Parse(src)
		var perr *Error
		if !errors.As(err, &perr) || !strings.Contains(perr.Msg, "nests deeper than 10000 levels") || perr.Pos.Line < 1 {
			t.Errorf("%s one level over the bound: %v, want a positioned nesting error", shape, err)
		}
	}
	// The error names the token that went one level too deep.
	_, err := Parse(deepSources(MaxDepth + 1)["parens"])
	if want := (token.Pos{Line: 1, Col: len("$a.b -> ") + MaxDepth + 2}); err == nil || err.(*Error).Pos != want {
		t.Errorf("parens one level over the bound: %v, want the error at %s", err, want)
	}
}
