package confvalley

import (
	"context"
	"fmt"
	"testing"

	"confvalley/internal/config"
)

// Caller-held incremental state: repeated and low-churn runs against
// explicit stores reuse verdicts across calls without the session
// retaining anything, and the spliced reports match full runs exactly.
func TestRunProgramIncrementalExplicitState(t *testing.T) {
	s := NewSession()
	prog, err := s.Compile("$App.timeout -> int & [1, 60]\n$App.retries -> int & [0, 5]\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	build := func(timeout string) *config.Store {
		st := config.NewStore()
		st.Add(&config.Instance{Key: config.K("App", "timeout"), Value: timeout})
		st.Add(&config.Instance{Key: config.K("App", "retries"), Value: "2"})
		return st
	}

	rep1, _, state, err := s.RunProgramIncremental(ctx, prog, build("30"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if state == nil || rep1.SpecsReused != 0 || !rep1.Passed() {
		t.Fatalf("seed run: reused=%d passed=%t state=%v", rep1.SpecsReused, rep1.Passed(), state)
	}
	if state.Report() != rep1 {
		t.Error("state does not retain the seeding report")
	}

	// Churn one key: the touched spec re-runs, the other splices.
	rep2, _, state2, err := s.RunProgramIncremental(ctx, prog, build("400"), state)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.SpecsReused != 1 {
		t.Errorf("churn run reused %d specs, want 1", rep2.SpecsReused)
	}
	if len(rep2.Violations) != 1 || rep2.Violations[0].Key != "App.timeout" {
		t.Errorf("churn run violations = %+v", rep2.Violations)
	}
	full, _, _, err := s.RunProgramIncremental(ctx, prog, build("400"), nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *rep2, *full
	a.Duration, a.SpecsReused, b.Duration = 0, 0, 0
	aj, _ := a.JSON()
	bj, _ := b.JSON()
	if string(aj) != string(bj) {
		t.Errorf("incremental diverged from full:\n%s\n%s", aj, bj)
	}

	// A state from a different program never splices.
	other, err := s.Compile("$App.timeout -> int\n")
	if err != nil {
		t.Fatal(err)
	}
	rep3, _, _, err := s.RunProgramIncremental(ctx, other, build("400"), state2)
	if err != nil {
		t.Fatal(err)
	}
	if rep3.SpecsReused != 0 {
		t.Errorf("mismatched program reused %d specs, want 0", rep3.SpecsReused)
	}
}

// An interrupted run hands the previous state back unchanged so the
// next round splices from a complete verdict set.
func TestRunProgramIncrementalInterruptedKeepsState(t *testing.T) {
	s := NewSession()
	var src string
	for i := 0; i < 8; i++ {
		src += fmt.Sprintf("$App.p%d -> int\n", i)
	}
	prog, err := s.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	// build returns the eight values, p0 set to first.
	build := func(first string) *config.Store {
		st := config.NewStore()
		for i := 0; i < 8; i++ {
			v := "1"
			if i == 0 {
				v = first
			}
			st.Add(&config.Instance{Key: config.K("App", fmt.Sprintf("p%d", i)), Value: v})
		}
		return st
	}

	_, _, state, err := s.RunProgramIncremental(context.Background(), prog, build("1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	// One value changed under p0's spec, so the run has a spec to re-run
	// and polls the context before it.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	rep, _, after, err := s.RunProgramIncremental(canceled, prog, build("2"), state)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted {
		t.Fatal("a run with a spec to re-run under a cancelled context was not interrupted")
	}
	if after != state {
		t.Error("interrupted run replaced the retained state")
	}
}
