package plan

import (
	"strings"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

func testStore() *config.Store {
	st := config.NewStore()
	for i, v := range []string{"5", "7", "12"} {
		st.Add(&config.Instance{
			Key: config.Key{Segs: []config.Seg{
				{Name: "App", Inst: "a", Index: i + 1},
				{Name: "Timeout"},
			}},
			Value:  v,
			Source: "test",
		})
	}
	return st
}

func mustCompile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runPlan(p *Plan, st *config.Store) *report.Report {
	rep, rt := &report.Report{}, &Runtime{Snap: st.Snapshot(), Env: simenv.NewSim()}
	for _, n := range p.Specs {
		n.Run(rt, rep)
	}
	return rep
}

// The cache returns one plan per program identity and counts hits and
// misses; Forget drops the entry so the next For lowers again.
func TestPlanCache(t *testing.T) {
	prog := mustCompile(t, "$App.Timeout -> int")
	defer Forget(prog)
	h0, m0 := CacheStats()
	p1 := For(prog)
	if _, m := CacheStats(); m != m0+1 {
		t.Errorf("first For: misses = %d, want %d", m, m0+1)
	}
	p2 := For(prog)
	if p1 != p2 {
		t.Error("second For returned a different plan for the same program")
	}
	if h, _ := CacheStats(); h != h0+1 {
		t.Errorf("second For: hits = %d, want %d", h, h0+1)
	}
	Forget(prog)
	p3 := For(prog)
	if p3 == p1 {
		t.Error("For after Forget returned the evicted plan pointer")
	}
	if _, m := CacheStats(); m != m0+2 {
		t.Errorf("For after Forget: misses = %d, want %d", m, m0+2)
	}
}

// Lowering never fails; evaluation-time errors fire only when the
// offending closure actually runs, matching the interpreter. The
// compiler now rejects bad regexes up front (see TestBadRegexRejected
// in internal/compiler), so a program carrying one can only be built
// by hand — lowering must still degrade gracefully for that case.
func TestLazyErrors(t *testing.T) {
	badMatch := func(src string) *compiler.Program {
		prog := mustCompile(t, src)
		prog.Specs[0].Pred.(*ast.Match).Pattern = "/[/"
		return prog
	}
	// Bad regex over a populated domain: the spec errors.
	prog := badMatch("$App.Timeout -> match('/x/')")
	defer Forget(prog)
	rep := runPlan(For(prog), testStore())
	if len(rep.SpecErrors) != 1 || !strings.Contains(rep.SpecErrors[0], "bad regular expression") {
		t.Errorf("bad regex over data: SpecErrors = %q", rep.SpecErrors)
	}
	// The same bad regex over an empty domain never evaluates, so the
	// spec passes vacuously — exactly like the interpreter.
	empty := badMatch("$App.Missing -> match('/x/')")
	defer Forget(empty)
	rep = runPlan(For(empty), testStore())
	if len(rep.SpecErrors) != 0 {
		t.Errorf("bad regex over empty domain: SpecErrors = %q", rep.SpecErrors)
	}
}

// Static lowering still evaluates correctly: literal enum members,
// range bounds and relation right-hand sides are pre-bound.
func TestStaticLowering(t *testing.T) {
	cases := []struct {
		src        string
		violations int
	}{
		{"$App.Timeout -> [5, 12]", 0},
		{"$App.Timeout -> [6, 12]", 1},
		{"$App.Timeout -> {'5', '7', '12'}", 0},
		{"$App.Timeout -> {'5'}", 2},
		{"$App.Timeout -> >= 5", 0},
		{"$App.Timeout -> > 5", 1},
		{"$App.Timeout -> != 7", 1},
	}
	for _, tc := range cases {
		prog := mustCompile(t, tc.src)
		rep := runPlan(For(prog), testStore())
		Forget(prog)
		if len(rep.SpecErrors) != 0 {
			t.Errorf("%s: spec errors %q", tc.src, rep.SpecErrors)
		}
		if len(rep.Violations) != tc.violations {
			t.Errorf("%s: %d violations, want %d", tc.src, len(rep.Violations), tc.violations)
		}
	}
}
