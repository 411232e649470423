package compiler

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"confvalley/internal/cpl/ast"
	"confvalley/internal/report"
)

func TestCheckPredWalksAllShapes(t *testing.T) {
	// Misspelled predicates are caught wherever they hide.
	bad := []string{
		"$X -> int & nosuch",
		"$X -> nosuch | int",
		"$X -> ~nosuch",
		"$X -> exists nosuch",
		"$X -> if (nosuch) int",
		"$X -> if (int) nosuch",
		"$X -> if (int) bool else nosuch",
		"let M := nosuch",
	}
	for _, src := range bad {
		_, err := Compile(src)
		if err == nil || !strings.Contains(err.Error(), "nosuch") {
			t.Errorf("Compile(%q) err = %v", src, err)
		}
	}
}

func TestMacroUsableAfterDefinition(t *testing.T) {
	prog, err := Compile("let A := int\nlet B := @A & nonempty\n$X -> @B")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Macros) != 2 {
		t.Errorf("macros = %d", len(prog.Macros))
	}
}

func TestPolicySeverityScopedToFollowing(t *testing.T) {
	prog, err := CompileWith(`
$A -> int
policy severity 'error'
namespace n {
  $B -> int
}
$C -> int
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Specs[0].Severity != report.Info {
		t.Errorf("A severity = %v", prog.Specs[0].Severity)
	}
	if prog.Specs[1].Severity != report.Error || prog.Specs[2].Severity != report.Error {
		t.Errorf("B/C severity = %v/%v", prog.Specs[1].Severity, prog.Specs[2].Severity)
	}
}

func TestConditionContextKeysDiffer(t *testing.T) {
	// Identical spec bodies under different conditions must not merge.
	prog, err := Compile(`
if (exists $F -> == '1') $X -> int
if (exists $F -> == '2') $X -> int
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Specs) != 2 {
		t.Errorf("specs merged across conditions: %d", len(prog.Specs))
	}
}

func TestBindVariableDetection(t *testing.T) {
	// Wildcard leaf disables binding.
	prog, err := CompileWith(`
if ($Cloud* -> nonempty) { $Fabric.X -> int }
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Specs[0].Conds[0].BindVar != "" {
		t.Errorf("wildcard condition should not bind: %+v", prog.Specs[0].Conds[0])
	}
	// Binding detected in else bodies and predicate expressions too.
	prog, err = CompileWith(`
if ($Name -> nonempty) { $A -> int } else { $B -> == $Fabric::$Name.X }
`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Specs[1].Conds[0].BindVar != "Name" {
		t.Errorf("binding via else-body predicate expression missed: %+v", prog.Specs[1].Conds[0])
	}
}

func TestRenderOfCompiledTextStable(t *testing.T) {
	src := "$Fabric.X -> int & [1, 5] message 'custom'"
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Specs[0].Text != src {
		t.Errorf("Text = %q, want %q", prog.Specs[0].Text, src)
	}
}

func TestGetStatementIsNoOpInBatch(t *testing.T) {
	prog, err := Compile("get $Fabric.X\n$Fabric.X -> int")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Specs) != 1 {
		t.Errorf("specs = %d; get must not become a spec", len(prog.Specs))
	}
}

func TestFlattenJoinRoundTrip(t *testing.T) {
	prog, err := CompileWith("$X -> int & nonempty & [1, 2] & unique", Options{})
	if err != nil {
		t.Fatal(err)
	}
	conj := FlattenAnd(prog.Specs[0].Pred)
	if len(conj) != 4 {
		t.Fatalf("conjuncts = %d", len(conj))
	}
	back := joinAnd(conj)
	if ast.Render(back) != ast.Render(prog.Specs[0].Pred) {
		t.Error("flatten/join not a round trip")
	}
}

func TestImpliesNegativeCases(t *testing.T) {
	cases := []struct{ q, p string }{
		{"int", "bool"},   // unrelated types
		{"[1, 5]", "int"}, // range does not imply a type
		{"unique", "nonempty"},
		{"match('x')", "nonempty"},
	}
	for _, c := range cases {
		src := "$X -> " + c.p + " & " + c.q
		prog, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Stats.ConstraintsOmitted != 0 {
			t.Errorf("%q implied %q and was dropped; it should not be", c.q, c.p)
		}
	}
}

// Regression for the compile-time regex check: an invalid /re/ match
// pattern is rejected during compilation with a source position, so
// neither execution path — the lowered plan (which pre-compiles the
// regex) nor the AST-interpreter oracle (which used to fail only when
// an element was finally matched) — ever sees it at run time.
func TestBadRegexRejected(t *testing.T) {
	_, err := Compile("$keystone.auth_host -> match('/[/')")
	if err == nil {
		t.Fatal("bad regex compiled")
	}
	var ce *Error
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T, want *compiler.Error", err)
	}
	if !strings.Contains(ce.Msg, "bad regular expression") {
		t.Errorf("Msg = %q", ce.Msg)
	}
	if ce.Pos.Line != 1 || ce.Pos.Col != 24 {
		t.Errorf("Pos = %s, want 1:24", ce.Pos)
	}
	// Glob and substring patterns have no failure mode.
	if _, err := Compile("$X -> match('a[b')"); err != nil {
		t.Errorf("substring pattern rejected: %v", err)
	}
	if _, err := Compile("$X -> match('a[*')"); err != nil {
		t.Errorf("glob pattern rejected: %v", err)
	}
}

// Every compile error carries the position of its offending construct,
// rendered as line:col so front ends can prefix the file name.
func TestErrorsCarryPositions(t *testing.T) {
	cases := []struct {
		src  string
		line int
	}{
		{"$X -> int\n$Y -> nosuch", 2},
		{"$X -> @Missing", 1},
		{"$X -> int\n\npolicy frobnicate 'x'", 3},
		{"let A := int\nlet A := bool", 2},
		{"$X -> int\ninclude 'nope.cpl'", 2},
		{"policy on_violation 'maybe'", 1},
		{"$X -> match('/(/')", 1},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		var ce *Error
		if !errors.As(err, &ce) {
			t.Errorf("Compile(%q) err = %v, want *compiler.Error", c.src, err)
			continue
		}
		if ce.Pos.Line != c.line || ce.Pos.Col == 0 {
			t.Errorf("Compile(%q) pos = %s, want line %d", c.src, ce.Pos, c.line)
		}
		if !strings.Contains(ce.Error(), fmt.Sprintf("cpl:%d:", c.line)) {
			t.Errorf("Compile(%q) message %q lacks line:col prefix", c.src, ce.Error())
		}
	}
}

// TestCompileChecksGuardsAndConditions: an unknown predicate or an
// undefined macro is a positioned compile error in a pipeline step guard
// and in an if-statement's condition too, with the message the same
// mistake gets at the top of a spec's predicate.
func TestCompileChecksGuardsAndConditions(t *testing.T) {
	cases := []struct{ src, bad, topLevel string }{
		{"$x -> if (bogus(1)) trim() -> nonempty", "bogus", "$x -> bogus(1)"},
		{"$x -> if (@nomacro) trim() -> nonempty", "@nomacro", "$x -> @nomacro"},
		{"if ($x -> bogus(1)) { $y -> nonempty }", "bogus", "$x -> bogus(1)"},
		{"if ($x -> @nomacro) { $y -> nonempty }", "@nomacro", "$x -> @nomacro"},
	}
	for _, c := range cases {
		var want *Error
		if _, err := Compile(c.topLevel); !errors.As(err, &want) {
			t.Fatalf("Compile(%q) err = %v, want *compiler.Error", c.topLevel, err)
		}
		_, err := Compile(c.src)
		var ce *Error
		if !errors.As(err, &ce) {
			t.Errorf("Compile(%q) err = %v, want *compiler.Error", c.src, err)
			continue
		}
		if ce.Msg != want.Msg {
			t.Errorf("Compile(%q) message %q, want %q", c.src, ce.Msg, want.Msg)
		}
		if col := strings.Index(c.src, c.bad) + 1; ce.Pos.Line != 1 || ce.Pos.Col != col {
			t.Errorf("Compile(%q) pos = %s, want 1:%d", c.src, ce.Pos, col)
		}
	}
}
