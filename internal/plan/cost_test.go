package plan

import (
	"runtime"
	"testing"
	"time"

	"confvalley/internal/config"
)

// Costs prices a snapshot and lets go of it: a plan lives as long as its
// program is registered, so a snapshot it kept would outlive every
// request that could use it.
func TestCostsDoesNotRetainSnapshot(t *testing.T) {
	p := Lower(mustCompile(t, "$App.Timeout -> int"))
	finalized := make(chan struct{})
	func() {
		sn := testStore().Snapshot()
		runtime.SetFinalizer(sn, func(*config.Snapshot) { close(finalized) })
		if got := p.Costs(sn); len(got) != 1 || got[0] != 4 {
			t.Errorf("Costs = %v, want [4] (1 + the 3 instances the spec's pattern matches)", got)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-finalized:
			runtime.KeepAlive(p)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Error("the snapshot Costs priced was not collected while the plan was still reachable")
	runtime.KeepAlive(p)
}
