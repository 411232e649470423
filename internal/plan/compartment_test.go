package plan

import (
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// TestCompartmentEvaluationIsLinear is the scaling gate for compartment
// evaluation: a compartment spec over G clusters does a constant amount of
// work per cluster, so quadrupling G may at most quadruple (with slack:
// quintuple) the allocations of one spec run. The executor this replaced
// re-filtered the whole class for every group — one rendered prefix per
// instance per group — and grew ~16x per 4x.
//
// Allocation counts, not time: they repeat exactly, on any host.
func TestCompartmentEvaluationIsLinear(t *testing.T) {
	specs := []struct{ name, src string }{
		{"relation", "compartment Cluster { $VipStart <= $VipEnd }"},
		{"unique", "compartment Cluster.Rack { $Blade.BladeID -> unique }"},
		{"consistent", "compartment Cluster { $LoadBalancerSet.Device -> consistent }"},
	}
	sizes := []int{50, 200, 800}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			prog := mustCompile(t, sp.src)
			defer Forget(prog)
			node := For(prog).Specs[0]
			allocs := make([]float64, len(sizes))
			for i, clusters := range sizes {
				st := config.NewStore()
				azuregen.AddExpertSubstrate(st, clusters, 2015)
				rt := &Runtime{Snap: st.Snapshot(), Env: simenv.NewSim()}
				var checked int
				allocs[i] = testing.AllocsPerRun(3, func() {
					rep := &report.Report{}
					node.Run(rt, rep)
					checked = rep.InstancesChecked
				})
				if checked < clusters {
					t.Fatalf("%d clusters: only %d instances checked; the spec is not exercising its compartments", clusters, checked)
				}
				t.Logf("%4d clusters: %8.0f allocations, %6.1f per cluster", clusters, allocs[i], allocs[i]/float64(clusters))
			}
			for i := 1; i < len(sizes); i++ {
				if allocs[i] > 5*allocs[i-1] {
					t.Errorf("%d clusters allocate %.0f, more than 5x the %.0f of %d clusters: compartment evaluation is not linear in the clusters",
						sizes[i], allocs[i], allocs[i-1], sizes[i-1])
				}
			}
		})
	}
}

// TestReferenceResolvedOncePerCompartmentDomain pins the discovery cost
// the scaling rests on: the groups of a compartment share one resolution
// of each reference, so the number of discovery queries a spec run makes
// depends on the spec, not on how many compartment instances the data
// has.
func TestReferenceResolvedOncePerCompartmentDomain(t *testing.T) {
	prog := mustCompile(t, "compartment Cluster { $VipStart <= $VipEnd }")
	defer Forget(prog)
	node := For(prog).Specs[0]
	queries := func(clusters int) int64 {
		st := config.NewStore()
		azuregen.AddExpertSubstrate(st, clusters, 2015)
		rt := &Runtime{Snap: st.Snapshot(), Env: simenv.NewSim()}
		st.ResetStats()
		node.Run(rt, &report.Report{})
		return st.Stats.Queries()
	}
	// $VipStart and $VipEnd, each found by its first (in-compartment)
	// candidate.
	if q10, q100 := queries(10), queries(100); q10 != 2 || q100 != 2 {
		t.Errorf("discovery queries = %d at 10 clusters, %d at 100; want 2 at both", q10, q100)
	}
}
