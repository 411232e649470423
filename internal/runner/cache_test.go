package runner

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/predicate"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

const cacheSpec = "$app.timeout -> int & [1, 60]\n$app.retries -> int & [0, 5]\n"

func payloadJob(data string) Job {
	return Job{SpecSrc: cacheSpec, Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte(data)}}}
}

// Prev threads one run's state into the next: a repeated payload reuses
// every spec verdict, a churned payload re-runs only the touched spec.
func TestPrevThreadsIncrementalState(t *testing.T) {
	r := New(Options{})
	ctx := context.Background()

	res1, err := r.Run(ctx, payloadJob("app.timeout = 400\napp.retries = 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res1.State == nil {
		t.Fatal("seed run returned no state")
	}

	job := payloadJob("app.timeout = 400\napp.retries = 2\n")
	job.Prev = res1.State
	res2, err := r.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Report.SpecsReused != res2.Report.SpecsRun || res2.Report.SpecsRun == 0 {
		t.Errorf("repeat run reused %d of %d specs", res2.Report.SpecsReused, res2.Report.SpecsRun)
	}
	if len(res2.Report.Violations) != 1 || res2.Report.Violations[0].Key != "app.timeout" {
		t.Errorf("repeat run violations = %+v", res2.Report.Violations)
	}

	churn := payloadJob("app.timeout = 30\napp.retries = 2\n")
	churn.Prev = res2.State
	res3, err := r.Run(ctx, churn)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Report.SpecsReused != 1 {
		t.Errorf("churn run reused %d specs, want 1 (retries untouched)", res3.Report.SpecsReused)
	}
	if !res3.Report.Passed() {
		t.Errorf("churn run violations = %+v", res3.Report.Violations)
	}
}

// stallHook is called by the stall predicate; a test installs a sleep
// to push one run past its LoadTimeout from inside a spec.
var stallHook atomic.Value // of func()

func init() {
	predicate.Register(&predicate.Func{
		Name: "stall",
		Check: func(simenv.Env, []value.V, value.V) (bool, error) {
			if h, ok := stallHook.Load().(func()); ok {
				h()
			}
			return true, nil
		},
	})
}

// LoadTimeout bounds an incremental run whichever branch it takes: a
// delta that touches every footprint used to restart the run under a
// background context, so the deadline was ignored for the whole run.
// The interrupted run must report itself and hand Prev back unchanged.
func TestLoadTimeoutInterruptsAllRerunIncremental(t *testing.T) {
	const spec = "$app.a -> stall\n$app.b -> int & [0, 9]\n$app.c -> int & [0, 8]\n"
	job := func(v string) Job {
		return Job{SpecSrc: spec, Payloads: []Payload{{Name: "app.kv", Format: "kv",
			Data: []byte("app.a = " + v + "\napp.b = " + v + "\napp.c = " + v + "\n")}}}
	}
	const timeout = 100 * time.Millisecond
	r := New(Options{Parallel: 1, LoadTimeout: timeout})
	seed, err := r.Run(context.Background(), job("1"))
	if err != nil || seed.Report.Interrupted || seed.State == nil {
		t.Fatalf("seed run: err=%v report=%+v", err, seed.Report)
	}

	stallHook.Store(func() { time.Sleep(2 * timeout) })
	defer stallHook.Store(func() {})
	next := job("2") // every key changed: nothing to reuse
	next.Prev = seed.State
	res, err := r.Run(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Interrupted || res.Report.SpecsRun != 1 {
		t.Errorf("deadline inside an all-rerun incremental run: Interrupted=%t SpecsRun=%d, want true/1 (the stalled spec completes, nothing after it starts)",
			res.Report.Interrupted, res.Report.SpecsRun)
	}
	if res.State != seed.State {
		t.Error("an interrupted run replaced the incremental state instead of handing Prev back")
	}
}
