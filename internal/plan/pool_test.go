package plan

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"confvalley/internal/config"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// appStore holds n instances of App[i].Timeout, every one a passing int.
func appStore(n int) *config.Store {
	ins := make([]*config.Instance, n)
	for i := range ins {
		ins[i] = &config.Instance{
			Key:   config.Key{Segs: []config.Seg{{Name: "App", Index: i + 1}, {Name: "Timeout"}}},
			Value: "30",
		}
	}
	st := config.NewStore()
	st.AddAll(ins)
	return st
}

// runOn runs node over rt on c as Run does on a pooled context (the
// race detector's pool drops contexts at random, so these tests hold one
// themselves) and checks that every one of the n instances passed.
func runOn(t *testing.T, c *Ctx, node *SpecNode, rt *Runtime, n int) {
	t.Helper()
	rep := &report.Report{}
	c.bind(rt)
	node.run(c, rep)
	c.release()
	if rep.InstancesChecked != n || len(rep.Violations) != 0 {
		t.Fatalf("run checked %d instances with %d violations, want %d and none", rep.InstancesChecked, len(rep.Violations), n)
	}
}

// Once warm, a spec over a 10,000-element domain carves its element set
// and its predicates' outcomes from the context's arenas: a run
// allocates less than one 10,000-element []outcome, the smaller of the
// two.
func TestWarmArenasAllocateNoElementSets(t *testing.T) {
	const n = 10000
	node := Lower(mustCompile(t, "$App.Timeout -> int & [1, 60]")).Specs[0]
	rt := &Runtime{Snap: appStore(n).Snapshot(), Env: simenv.NewSim()}
	c := new(Ctx)
	runOn(t, c, node, rt, n)
	runOn(t, c, node, rt, n)
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runOn(t, c, node, rt, n)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if limit := uint64(n) * uint64(reflect.TypeOf(outcome{}).Size()); perRun >= limit {
		t.Errorf("a warm run over %d elements allocates %d bytes, want under %d: it is not carving from the arenas", n, perRun, limit)
	}
}

// A released context keeps at most arenaCap elements per arena however
// large a run's domain was, and no instance: release clears what the
// run carved.
func TestPooledCtxRetainsAtMostTheCap(t *testing.T) {
	node := Lower(mustCompile(t, "$App.Timeout -> int")).Specs[0]
	c := new(Ctx)

	const big = 200000
	runOn(t, c, node, &Runtime{Snap: appStore(big).Snapshot(), Env: simenv.NewSim()}, big)
	if len(c.outs.block) > arenaCap || len(c.vals.block) > arenaCap {
		t.Errorf("after a %d-element run the released Ctx keeps %d outcomes and %d values, want at most %d each",
			big, len(c.outs.block), len(c.vals.block), arenaCap)
	}

	const small = 2000
	var collected atomic.Int32
	func() {
		st := appStore(small)
		for _, in := range st.Instances() {
			runtime.SetFinalizer(in, func(*config.Instance) { collected.Add(1) })
		}
		runOn(t, c, node, &Runtime{Snap: st.Snapshot(), Env: simenv.NewSim()}, small)
	}()
	if len(c.vals.block) < small {
		t.Fatalf("the Ctx keeps %d values, fewer than the run carved", len(c.vals.block))
	}
	for i := 0; i < 20 && collected.Load() < small; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != small {
		t.Errorf("%d of the run's %d instances collected while its released Ctx was still reachable", got, small)
	}
	runtime.KeepAlive(c)
}
