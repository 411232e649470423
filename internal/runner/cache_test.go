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

// A repeated payload is served from the snapshot cache and, threaded
// through Prev, reuses every spec verdict; a churned payload re-parses
// and re-runs only the touched spec.
func TestSnapshotCacheAndPrevState(t *testing.T) {
	r := New(Options{SnapshotCache: 4})
	ctx := context.Background()

	res1, err := r.Run(ctx, payloadJob("app.timeout = 400\napp.retries = 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res1.SnapshotCached || res1.SnapshotHash == "" || res1.State == nil {
		t.Fatalf("seed run: cached=%t hash=%q state=%v", res1.SnapshotCached, res1.SnapshotHash, res1.State)
	}

	job := payloadJob("app.timeout = 400\napp.retries = 2\n")
	job.Prev = res1.State
	res2, err := r.Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.SnapshotCached || res2.SnapshotHash != res1.SnapshotHash {
		t.Errorf("repeat run not served from cache: cached=%t", res2.SnapshotCached)
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
	if res3.SnapshotCached {
		t.Error("distinct payload claimed a cache hit")
	}
	if res3.Report.SpecsReused != 1 {
		t.Errorf("churn run reused %d specs, want 1 (retries untouched)", res3.Report.SpecsReused)
	}
	if !res3.Report.Passed() {
		t.Errorf("churn run violations = %+v", res3.Report.Violations)
	}

	st := r.SnapshotCacheStats()
	if st.Hits != 1 || st.Entries != 2 {
		t.Errorf("snapshot cache stats = %+v, want 1 hit / 2 entries", st)
	}
}

// Jobs that are not pure functions of their payload bytes never enter
// the snapshot cache: spec-driven loads, degraded parses, or a
// disabled cache.
func TestSnapshotCacheGating(t *testing.T) {
	ctx := context.Background()

	// Disabled cache: no hash computed, no state lost.
	r := New(Options{})
	res, err := r.Run(ctx, payloadJob("app.timeout = 30\n"))
	if err != nil {
		t.Fatal(err)
	}
	if res.SnapshotHash != "" || res.SnapshotCached {
		t.Errorf("disabled cache still hashed: %+v", res)
	}
	if res.State == nil {
		t.Error("explicit state should flow even without the snapshot cache")
	}

	// A malformed payload degrades (quarantine) and must not be cached:
	// its outcome depends on loader history, not content.
	r2 := New(Options{SnapshotCache: 4})
	bad := Job{SpecSrc: cacheSpec, Payloads: []Payload{{Name: "app.json", Format: "json", Data: []byte("{broken")}}}
	if _, err := r2.Run(ctx, bad); err != nil {
		t.Fatal(err)
	}
	if got := r2.SnapshotCacheStats().Entries; got != 0 {
		t.Errorf("degraded parse cached: %d entries", got)
	}
	if _, err := r2.Run(ctx, bad); err != nil {
		t.Fatal(err)
	}
	if got := r2.SnapshotCacheStats().Hits; got != 0 {
		t.Errorf("degraded parse hit the cache: %d hits", got)
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
