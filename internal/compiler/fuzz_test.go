package compiler

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"confvalley/internal/cpl/lexer"
	cplparser "confvalley/internal/cpl/parser"
)

// maxFuzzSource bounds a FuzzCompile input: specification files are a few
// kilobytes, and a longer input only slows the fuzzer down.
const maxFuzzSource = 4 << 10

// FuzzCompile feeds arbitrary source through the CPL front end — lexer,
// parser, and the compiler with and without the optimizer, includes
// resolving to the source itself — which may reject it but must not
// panic. It is seeded with the shipped specification files, the lint
// corpus's deliberately broken ones, and the CPL embedded in the examples.
func FuzzCompile(f *testing.F) {
	for _, src := range fuzzSeeds(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > maxFuzzSource {
			return
		}
		_, _ = lexer.Tokenize(src)
		_, _ = cplparser.Parse(src)
		_, _ = Compile(src)
		self := func(string) (string, error) { return src, nil }
		_, _ = CompileWith(src, Options{Resolver: self})
	})
}

// fuzzSeeds returns the .cpl files under specs/ and every raw string
// literal in the examples' Go sources, each cut to maxFuzzSource bytes.
func fuzzSeeds(tb testing.TB) []string {
	var seeds []string
	add := func(s string) {
		if len(s) > maxFuzzSource {
			s = s[:maxFuzzSource]
		}
		seeds = append(seeds, s)
	}
	files, _ := filepath.Glob("../../specs/*.cpl")
	more, _ := filepath.Glob("../../specs/*/*.cpl")
	for _, name := range append(files, more...) {
		b, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		add(string(b))
	}
	examples, _ := filepath.Glob("../../examples/*/*.go")
	for _, name := range examples {
		file, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING && strings.HasPrefix(lit.Value, "`") {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					add(s)
				}
			}
			return true
		})
	}
	if len(seeds) == 0 {
		tb.Fatal("no seeds found under specs/ or examples/")
	}
	return seeds
}
