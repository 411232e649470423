package refeval

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/predicate"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

// hook is called by the refevalhook predicate; a test installs a cancel
// func for the duration of one run.
var hook atomic.Value // of func()

func init() {
	predicate.Register(&predicate.Func{
		Name:  "refevalhook",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if h, ok := hook.Load().(func()); ok && h != nil {
				h()
			}
			return true, nil
		},
	})
}

// fixture builds a store and the source of n specs over distinct keys;
// spec hookAt calls the hook and spec failAt fails. Distinct ranges keep
// the compiler from merging the specs.
func fixture(n, hookAt, failAt int) (*config.Snapshot, string) {
	st := config.NewStore()
	var src strings.Builder
	for i := 0; i < n; i++ {
		val := "1"
		if i == failAt {
			val = "x"
		}
		st.Add(&config.Instance{Key: config.K("app", fmt.Sprintf("k%d", i)), Value: val, Source: "test"})
		if i == hookAt {
			fmt.Fprintf(&src, "$app.k%d -> refevalhook\n", i)
		} else {
			fmt.Fprintf(&src, "$app.k%d -> int & [0, %d]\n", i, 100+i)
		}
	}
	return st.Snapshot(), src.String()
}

func compile(t *testing.T, src string) *compiler.Program {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// A run cancelled during a spec completes that spec and starts no other:
// the report is the completed prefix, marked Interrupted, with no spec
// error from the cancel.
func TestRunCancelStopsAfterPrefix(t *testing.T) {
	const n, cancelAt = 10, 4
	snap, src := fixture(n, cancelAt, -1)
	prog := compile(t, src)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hook.Store(func() { cancel() })
	defer hook.Store(func() {})

	rep := Run(ctx, snap, prog, simenv.NewSim(), Options{})
	if !rep.Interrupted || len(rep.SpecErrors) != 0 || rep.SpecsRun != cancelAt+1 {
		t.Fatalf("interrupted=%t, spec errors %v, %d specs run; want interrupted, none, %d",
			rep.Interrupted, rep.SpecErrors, rep.SpecsRun, cancelAt+1)
	}
	for seq := range prog.Specs {
		if _, ok := rep.Outcome(seq); ok != (seq <= cancelAt) {
			t.Errorf("spec %d: verdict recorded = %t", seq, ok)
		}
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "PARTIAL REPORT") {
		t.Fatalf("render of interrupted report lacks the partial banner:\n%s", b.String())
	}
}

// Stop-on-first, asked for by the options or by the program's policy,
// ends the run at the first spec with a violation.
func TestRunStopOnFirstEndsAtFailingSpec(t *testing.T) {
	snap, src := fixture(5, -1, 2)
	prog, policy := compile(t, src), compile(t, "policy on_violation 'stop'\n"+src)
	for _, c := range []struct {
		name string
		prog *compiler.Program
		opts Options
	}{
		{"option", prog, Options{StopOnFirst: true}},
		{"policy", policy, Options{}},
	} {
		rep := Run(context.Background(), snap, c.prog, simenv.NewSim(), c.opts)
		if !rep.Stopped || rep.SpecsRun != 3 || len(rep.Violations) != 1 {
			t.Errorf("%s: stopped=%t, %d specs run, %d violations; want stopped after 3 specs with 1 violation",
				c.name, rep.Stopped, rep.SpecsRun, len(rep.Violations))
		}
	}
	if rep := Run(context.Background(), snap, prog, simenv.NewSim(), Options{}); rep.Stopped || rep.SpecsRun != 5 {
		t.Errorf("no stop asked: stopped=%t, %d specs run; want all 5", rep.Stopped, rep.SpecsRun)
	}
}
