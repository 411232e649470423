package parser

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/lexer"
)

// parseOracle is Parse as it stood before the parser pulled its tokens
// from the lexer: the whole source tokenized up front, a lexical error
// returned before any parsing, then the statements parsed from the
// finished token slice. It is kept as the oracle FuzzParseStream holds
// Parse to.
func parseOracle(src string) ([]ast.Stmt, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{ts: &tokens{buf: toks, done: true}}
	return p.file()
}

// FuzzParseStream holds the streaming parse to the oracle: the same error
// text, or the same statements. Its seeds put a lexical error before,
// inside and after what a parse error stops at, nest past MaxDepth, and
// lean on the parser's lookahead: a '[' whose closing ']' is lines away,
// transform calls after an arrow, backtracking over a guarded step.
func FuzzParseStream(f *testing.F) {
	for _, src := range []string{
		"", "\n\n", "$a.b -> int", "$a.b -> int\n$c -> ip & nonempty\n",
		"$a -> [1, 5]", "$a -> [1,\n 5]\n -> at(0) -> int", "$a -> split(':') -> at(0) -> [1, 2]",
		"$a.b -> if (nonempty) int else bool", "compartment C {\n $a -> int\n}\n", "let x := 5\n$a -> == $x",
		"#[S] $a.b# -> int", "exists $a -> == 'x' message 'm'", "$a -> lower -> int", "$a -> first(",
		"$a -> int )", "$a -> int\n'unterminated", "$a -> ) 'unterminated\n", "'unterminated\n$a -> )",
		"$a -> int ! $b", "$a -> = 1", "$a -> int \\q", "$a -> 'bad \\q escape'", "$a -> int\n: x",
		strings.Repeat("(", 40) + "$a" + strings.Repeat(")", 40) + " -> int",
		"$a.b -> " + strings.Repeat("(", MaxDepth+1) + "int" + strings.Repeat(")", MaxDepth+1),
		"$a.b -> " + strings.Repeat("(", MaxDepth+1) + "int" + strings.Repeat(")", MaxDepth+1) + "\n'unterminated",
		"$a.b -> int" + strings.Repeat(" | int", MaxDepth+1) + "\n!",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		got, gotErr := Parse(src)
		want, wantErr := parseOracle(src)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse(%q): error %v, oracle %v", src, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %d statements, oracle %d", src, len(got), len(want))
		}
	})
}
