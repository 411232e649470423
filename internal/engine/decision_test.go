package engine

import (
	"runtime"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/plan"
	"confvalley/specs"
)

// The re-run decision over a wholesale change: the expert substrate at 200
// clusters, every cluster renamed between the two snapshots as in the
// benchmark's expert_eval bodies, against the Type A suite's footprints.
// Every spec re-runs, and proving it costs a handful of allocations per
// changed class, not a rendered key per changed instance: the key-listing
// delta this replaced spent 29,472 allocations and 4.47 MB here.
func TestIncrementalDecisionAllocations(t *testing.T) {
	base := config.NewStore()
	azuregen.AddExpertSubstrate(base, 200, 1)
	renamed := func(prefix string) *config.Snapshot {
		ins := make([]*config.Instance, 0, base.Len())
		for _, orig := range base.Instances() {
			cp := *orig
			cp.Key.Segs = append([]config.Seg(nil), orig.Key.Segs...)
			cp.Key.Segs[0].Inst = prefix + cp.Key.Segs[0].Inst
			ins = append(ins, &cp)
		}
		st := config.NewStore()
		st.AddAll(ins)
		return st.Snapshot()
	}
	prev, next := renamed("a-"), renamed("b-")
	prog, err := compiler.Compile(specs.AzureTypeA())
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Lower(prog)

	rerun := 0
	decide := func() {
		delta := next.Diff(prev)
		rerun = 0
		for _, n := range p.Specs {
			if delta.OverlapsAny(n.Footprint().Patterns) {
				rerun++
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := testing.AllocsPerRun(5, decide)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decide()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc

	if rerun != len(p.Specs) || rerun != 13 {
		t.Fatalf("%d of %d specs overlap the renamed substrate, want all 13", rerun, len(p.Specs))
	}
	t.Logf("decision: %.0f allocations, %d bytes", allocs, bytes)
	if allocs >= 200 {
		t.Errorf("deciding re-runs took %.0f allocations, want under 200", allocs)
	}
	if bytes >= 64<<10 {
		t.Errorf("deciding re-runs allocated %d bytes, want under 64 KB", bytes)
	}
}
