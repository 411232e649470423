package confvalley

// Chaos gate: a multi-round watch session driven through injected
// ingestion faults — torn writes, unreadable files, a panicking plug-in
// predicate — must never crash, must account for every degraded source,
// and must converge back to a byte-identical report within one round of
// the faults stopping. Run under -race via the stress target.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"confvalley/internal/faultinject"
	"confvalley/internal/predicate"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

// chaosHook is called once per evaluation of the chaoshook predicate;
// the chaos test installs a faultinject.PanicOnNth to stage a plug-in
// panic at a known call.
var chaosHook atomic.Value // of func()

func init() {
	predicate.Register(&predicate.Func{
		Name:  "chaoshook",
		Arity: 0,
		Check: func(env simenv.Env, args []value.V, v value.V) (bool, error) {
			if h, ok := chaosHook.Load().(func()); ok && h != nil {
				h()
			}
			return true, nil
		},
	})
}

// renderNoDuration renders a report with wall time zeroed, for byte
// identity comparisons across rounds.
func renderNoDuration(rep *Report) string {
	c := *rep
	c.Duration = 0
	var b bytes.Buffer
	c.Render(&b)
	return b.String()
}

func TestChaosWatchSession(t *testing.T) {
	dir := t.TempDir()
	aPath := filepath.Join(dir, "a.json")
	bPath := filepath.Join(dir, "b.ini")
	cPath := filepath.Join(dir, "c.yaml")
	goodA := []byte(`{"app": {"timeout": "30", "name": "frontend"}}`)
	goodB := []byte("[db]\nport = 5432\n")
	goodC := []byte("svc:\n  mode: fast\n")
	writeAll := func() {
		for _, f := range []struct {
			path string
			data []byte
		}{{aPath, goodA}, {bPath, goodB}, {cPath, goodC}} {
			if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeAll()

	// Call 1 happens in round 0; call 2 is the first re-run of the
	// chaoshook spec, staged by the round-12 data change below.
	chaosHook.Store(func() {})
	hook := faultinject.PanicOnNth(2, "chaos predicate blew up")
	chaosHook.Store(func() { hook() })
	defer chaosHook.Store(func() {})

	s := NewSession()
	s.Degrade = true
	s.MaxStale = 0 // serve stale data for as long as the fault lasts
	src := fmt.Sprintf("load 'json' '%s'\nload 'ini' '%s'\nload 'yaml' '%s'\n", aPath, bPath, cPath) +
		"$app.timeout -> int & [1, 60]\n" +
		"$db.port -> int & [1, 65535]\n" +
		"$svc.mode -> {'fast', 'safe'}\n" +
		"$app.name -> chaoshook\n"
	prog, err := s.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	const rounds = 25
	var steady string
	var state *RunState // each round hands its state to the next, as cvcheck -watch does
	outcomeFor := func(lr *LoadReport, name string) SourceOutcome {
		t.Helper()
		for _, o := range lr.Outcomes {
			if o.Source == name {
				return o
			}
		}
		t.Fatalf("no outcome for %s in %+v", name, lr.Outcomes)
		return SourceOutcome{}
	}

	for r := 0; r < rounds; r++ {
		// Fault schedule (applied before the round's load):
		switch r {
		case 5: // torn mid-write read of the JSON source
			if err := os.WriteFile(aPath, faultinject.Torn(goodA), 0o644); err != nil {
				t.Fatal(err)
			}
		case 6:
			writeAll()
		case 8: // the INI source disappears for two rounds
			if err := os.Remove(bPath); err != nil {
				t.Fatal(err)
			}
		case 10:
			writeAll()
		case 12: // valid change that re-runs the plug-in spec → staged panic
			if err := os.WriteFile(aPath, []byte(`{"app": {"timeout": "30", "name": "canary"}}`), 0o644); err != nil {
				t.Fatal(err)
			}
		case 13:
			writeAll()
		case 16: // a real violation arrives through a healthy round
			if err := os.WriteFile(aPath, []byte(`{"app": {"timeout": "400", "name": "frontend"}}`), 0o644); err != nil {
				t.Fatal(err)
			}
		case 17:
			writeAll()
		}

		rep, lr, next, err := s.RunProgramIncremental(context.Background(), prog, NewStore(), state)
		if err != nil {
			t.Fatalf("round %d: RunProgramIncremental errored under Degrade: %v", r, err)
		}
		state = next
		if lr == nil || len(lr.Outcomes) != 3 {
			t.Fatalf("round %d: load report %+v", r, lr)
		}
		if !oneKindEach(lr) {
			t.Fatalf("round %d: accounting does not cover every source: %+v", r, lr.Outcomes)
		}

		switch r {
		case 0:
			steady = renderNoDuration(rep)
			if !rep.Passed() {
				t.Fatalf("round 0 baseline not clean:\n%s", steady)
			}
		case 5: // stale-served torn write: same data, same report
			if o := outcomeFor(lr, aPath); !o.Stale || o.StaleRounds != 1 || o.Instances != 2 {
				t.Fatalf("round 5: torn source outcome = %+v", o)
			}
			if got := renderNoDuration(rep); got != steady {
				t.Fatalf("round 5: stale-served report diverged:\n%s\nvs\n%s", got, steady)
			}
		case 8, 9: // missing file served stale, staleness age climbing
			if o := outcomeFor(lr, bPath); !o.Stale || o.StaleRounds != r-7 {
				t.Fatalf("round %d: missing source outcome = %+v", r, o)
			}
			if got := renderNoDuration(rep); got != steady {
				t.Fatalf("round %d: stale-served report diverged", r)
			}
		case 12: // panicking plug-in: contained to one spec error
			if lr.Degraded() {
				t.Fatalf("round 12: load degraded unexpectedly: %+v", lr.Outcomes)
			}
			found := false
			for _, e := range rep.SpecErrors {
				if strings.Contains(e, "panic: chaos predicate blew up") {
					found = true
				}
			}
			if !found {
				t.Fatalf("round 12: staged panic not contained as a spec error: %v", rep.SpecErrors)
			}
			if len(rep.Violations) != 0 {
				t.Fatalf("round 12: sibling specs disturbed: %v", rep.Violations)
			}
		case 16: // fresh data with a real violation still validates
			if len(rep.Violations) != 1 || rep.Violations[0].Key != "app.timeout" {
				t.Fatalf("round 16: violations = %v", rep.Violations)
			}
		case 13, 18: // one round after a fault/change stops: converged
			if got := renderNoDuration(rep); got != steady {
				t.Fatalf("round %d: not converged one round after the fault:\n%s\nvs\n%s", r, got, steady)
			}
		default:
			if got := renderNoDuration(rep); got != steady {
				t.Fatalf("round %d: clean round diverged from baseline:\n%s\nvs\n%s", r, got, steady)
			}
		}
	}
}

// Load accounting invariants hold along a lineage of many rounds of
// scheduled random faults (error-rate, torn reads, scheduled panics):
// every source gets an outcome, the categories partition the sources,
// and a source is quarantined only before its first successful parse
// (MaxStale = 0).
func TestChaosLoaderScheduledFaults(t *testing.T) {
	payload := []byte(`{"app": {"timeout": "30", "name": "svc"}}`)
	sched := faultinject.NewSchedule(42)
	sched.ErrorRate = 0.10
	sched.TornRate = 0.05
	sched.PanicEvery = 13

	const nSources = 8
	var sources []Source
	everGood := make(map[string]bool)
	for i := 0; i < nSources; i++ {
		name := fmt.Sprintf("src%d.json", i)
		sources = append(sources, Source{
			Name:   name,
			Format: "json",
			Fetch:  sched.Wrap(func(context.Context) ([]byte, error) { return payload, nil }),
		})
	}

	// One lineage, MaxStale 0: each round's load starts from the parses
	// the round before's returned.
	s := NewSession()
	var state RunState
	const rounds = 30
	for r := 0; r < rounds; r++ {
		st := NewStore()
		var rep *LoadReport
		rep, state = s.LoadSources(context.Background(), st, sources, &state)
		if len(rep.Outcomes) != nSources {
			t.Fatalf("round %d: %d outcomes, want %d", r, len(rep.Outcomes), nSources)
		}
		if !oneKindEach(rep) {
			t.Fatalf("round %d: categories do not partition the sources: %+v", r, rep.Outcomes)
		}
		for _, o := range rep.Outcomes {
			if o.Err == "" {
				everGood[o.Source] = true
			}
			if o.Quarantined && everGood[o.Source] {
				t.Fatalf("round %d: %s quarantined despite a retained last good parse: %+v", r, o.Source, o)
			}
			if (o.Err == "" || o.Stale) && o.Instances != 2 {
				t.Fatalf("round %d: contributing source has %d instances, want 2: %+v", r, o.Instances, o)
			}
		}
	}
	calls, errs, torn, panics := sched.Stats()
	if calls != rounds*nSources {
		t.Fatalf("schedule saw %d calls, want %d", calls, rounds*nSources)
	}
	if errs == 0 || torn == 0 || panics == 0 {
		t.Fatalf("fault mix not exercised: errs=%d torn=%d panics=%d", errs, torn, panics)
	}
}

// A deadline landing mid-load interrupts the batch cleanly: the
// in-flight source finishes, the rest are never touched, and the
// validation that follows reports Interrupted.
func TestChaosDeadlineMidLoad(t *testing.T) {
	s := NewSession()
	s.Degrade = true
	s.RegisterSource("one.json", []byte(`{"app": {"x": "1"}}`))
	s.RegisterSource("two.json", []byte(`{"app": {"y": "2"}}`))
	prog, err := s.Compile("load 'json' 'one.json'\nload 'json' 'two.json'\n$app.x -> int\n")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, lr, err := s.RunProgram(ctx, prog, s.Store())
	if err != nil {
		t.Fatalf("degraded canceled round errored: %v", err)
	}
	if !rep.Interrupted {
		t.Fatalf("report not Interrupted: %+v", rep)
	}
	if lr == nil || !lr.Interrupted {
		t.Fatalf("load report not Interrupted: %+v", lr)
	}
}

// oneKindEach reports whether every outcome of rep is exactly one of
// loaded cleanly, served stale and quarantined.
func oneKindEach(rep *LoadReport) bool {
	for _, o := range rep.Outcomes {
		kinds := 0
		for _, k := range []bool{o.Err == "", o.Stale, o.Quarantined} {
			if k {
				kinds++
			}
		}
		if kinds != 1 {
			return false
		}
	}
	return true
}
