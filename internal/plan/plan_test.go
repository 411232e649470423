package plan

import (
	"strings"
	"sync"
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

// A program owns its plan: For lowers it once and returns the same
// pointer on every later call, and another program gets its own.
func TestForLowersOncePerProgram(t *testing.T) {
	prog := mustCompile(t, "$App.Timeout -> int")
	n0 := Lowerings()
	p1 := For(prog)
	if n := Lowerings(); n != n0+1 {
		t.Errorf("first For: %d lowering(s), want 1", n-n0)
	}
	if p2 := For(prog); p2 != p1 {
		t.Error("second For returned a different plan for the same program")
	}
	if n := Lowerings(); n != n0+1 {
		t.Errorf("second For lowered again: %d lowering(s), want 1", n-n0)
	}
	if For(mustCompile(t, "$App.Timeout -> int")) == p1 {
		t.Error("a second program of the same text shares the first one's plan")
	}
	if n := Lowerings(); n != n0+2 {
		t.Errorf("For on a second program: %d lowering(s), want 2", n-n0)
	}
}

// Goroutines racing to run a fresh program share one lowering: all get
// the same plan and the program is lowered exactly once.
func TestConcurrentFirstLowering(t *testing.T) {
	const workers = 8
	prog := mustCompile(t, "$App.Timeout -> int & [1, 10]")
	n0 := Lowerings()
	plans := make([]*Plan, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			plans[i] = For(prog)
		}()
	}
	close(start)
	wg.Wait()
	for i, p := range plans {
		if p != plans[0] {
			t.Errorf("goroutine %d got a different plan", i)
		}
	}
	if n := Lowerings(); n != n0+1 {
		t.Errorf("%d concurrent first calls lowered %d time(s), want 1", workers, n-n0)
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
	rep := runPlan(For(prog), testStore())
	if len(rep.SpecErrors) != 1 || !strings.Contains(rep.SpecErrors[0], "bad regular expression") {
		t.Errorf("bad regex over data: SpecErrors = %q", rep.SpecErrors)
	}
	// The same bad regex over an empty domain never evaluates, so the
	// spec passes vacuously — exactly like the interpreter.
	empty := badMatch("$App.Missing -> match('/x/')")
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
		if len(rep.SpecErrors) != 0 {
			t.Errorf("%s: spec errors %q", tc.src, rep.SpecErrors)
		}
		if len(rep.Violations) != tc.violations {
			t.Errorf("%s: %d violations, want %d", tc.src, len(rep.Violations), tc.violations)
		}
	}
}
