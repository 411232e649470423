package engine

// Generated differential test for compartment evaluation. The plan
// executor resolves each reference once per compartment domain and looks
// every group up in one partition of the result; the AST interpreter
// re-resolves and re-filters per group and is the definition. Over seeded
// stores built to hit the corners of §4.2.2 the two must produce
// byte-identical reports.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// compartmentSuite is written against compartmentStore. Each line names
// the corner it is there for.
const compartmentSuite = `
// Paired relation; clusters without Hi leave the right-hand side empty.
compartment Zone.Cluster { $Lo <= $Hi }
// Clusters without Hi are skipped outright (no domain instance).
compartment Zone.Cluster { $Hi -> int & [0, 500] }
// Nested blocks compile to one combined compartment.
compartment Zone { compartment Cluster { $Hi >= $Lo } }
compartment Zone { compartment Cluster { $Node.Port -> unique } }
// Limit exists inside a few clusters and once at the top level: where
// any cluster has it the in-compartment candidate wins for every group,
// including the groups it is empty in — no fall-through to the global.
compartment Zone.Cluster { $Lo <= $Limit }
// Port and Weight counts differ per cluster: zipped where equal,
// Cartesian where not.
compartment Zone.Cluster { $Node.Port + $Node.Weight -> [0, 9040] }
// Inline compartments, alone, heading a pipeline, and under a block.
#[Zone.Cluster] $Node.Port# -> unique
#[Zone.Cluster] $Node.Weight# -> sum() -> [0, 60]
compartment Zone { #[Cluster] $Node.Weight# -> consistent }
// A coarser compartment over the same keys, and a namespace inside one.
compartment Zone { $Cluster.Lo -> consistent }
compartment Zone { namespace Cluster { $Lo <= $Hi } }
// References with variables inside a compartment: $_ per element, and a
// condition-bound variable.
compartment Zone.Cluster { $Primary -> foreach($Node::$_.Weight) -> int & [1, 40] }
if ($ActiveNode -> nonempty) { compartment Zone.Cluster { $Node::$ActiveNode.Weight -> int & [1, 40] } }
// A plain guard is re-evaluated per group.
compartment Zone.Cluster { if (exists $Hi -> int) $Lo -> int & [0, $Hi] }
// Wildcard compartments reach the scope segments that are spelled
// differently but render the same: one group, across references ($Lo and
// $Hi) and within one (the ports of a collider's even and odd nodes).
compartment Zone.Cluster* { $Lo <= $Hi }
compartment Zone.Cluster* { $Hi -> int & [0, 200] }
compartment Zone.Cluster* { $Node.Port -> unique }
// Nothing matches anywhere.
compartment Zone.Cluster { $Nowhere -> nonempty }
`

// compartmentStore generates zones of clusters with per-cluster optional
// keys and unequal multiplicities. Every third cluster or so is a
// "collider": its Hi and its odd nodes live under a scope segment named
// "Cluster::c[i]" — one plain name — which renders exactly like the
// structured segment {Cluster, c, i} the rest of the cluster lives under.
func compartmentStore(rng *rand.Rand) *config.Store {
	st := config.NewStore()
	add := func(v string, segs ...config.Seg) {
		st.Add(&config.Instance{Key: config.Key{Segs: segs}, Value: v, Source: "gen"})
	}
	leaf := func(name string) config.Seg { return config.Seg{Name: name} }
	nodeNames := []string{"n1", "n2", "n3", "n4"}
	anyLimit := rng.Intn(3) > 0 // some stores have no in-cluster Limit at all
	for z := 0; z < 2+rng.Intn(2); z++ {
		zone := config.Seg{Name: "Zone", Inst: fmt.Sprintf("z%d", z), Index: z + 1}
		for c := 0; c < 3+rng.Intn(5); c++ {
			name := fmt.Sprintf("c%d", c)
			cluster := config.Seg{Name: "Cluster", Inst: name, Index: c + 1}
			hiScope, oddScope := cluster, cluster
			if rng.Intn(3) == 0 {
				hiScope = config.Seg{Name: fmt.Sprintf("Cluster::%s[%d]", name, c+1)}
				oddScope = hiScope
			}
			lo := rng.Intn(300)
			add(fmt.Sprint(lo), zone, cluster, leaf("Lo"))
			if rng.Intn(4) > 0 {
				add(fmt.Sprint(lo-50+rng.Intn(300)), zone, hiScope, leaf("Hi"))
			}
			if anyLimit && rng.Intn(4) == 0 {
				add(fmt.Sprint(rng.Intn(400)), zone, cluster, leaf("Limit"))
			}
			nNodes := rng.Intn(len(nodeNames) + 1)
			for n := 0; n < nNodes; n++ {
				node := config.Seg{Name: "Node", Inst: nodeNames[n], Index: n + 1}
				scope := cluster
				if n%2 == 1 {
					scope = oddScope
				}
				add(fmt.Sprint(9000+rng.Intn(nNodes+1)), zone, scope, node, leaf("Port"))
				if rng.Intn(3) > 0 {
					add(fmt.Sprint(1+rng.Intn(45)), zone, scope, node, leaf("Weight"))
				}
			}
			if nNodes > 0 && rng.Intn(2) == 0 {
				add(nodeNames[rng.Intn(len(nodeNames))], zone, cluster, leaf("Primary"))
			}
		}
	}
	add("250", leaf("Limit"))
	add("n1", config.Seg{Name: "ActiveNode", Index: 1})
	add("n3", config.Seg{Name: "ActiveNode", Index: 2})
	return st
}

func TestCompartmentPlanMatchesInterpreter(t *testing.T) {
	prog := compileSrc(t, compartmentSuite)
	modes := []struct {
		name  string
		opts  Options
		naive bool
	}{
		{"parallel-1", Options{Parallel: 1}, false},
		{"parallel-4", Options{Parallel: 4}, false},
		{"stop-on-first", Options{StopOnFirst: true}, false},
		{"naive-discovery", Options{Parallel: 1}, true},
	}
	var violations, emptyRHS, checked int
	for seed := int64(1); seed <= 24; seed++ {
		st := compartmentStore(rand.New(rand.NewSource(seed)))
		for _, m := range modes {
			// The naive case holds the interpreter over the naive scan to
			// the plan over the index.
			interp := refRun(st, prog, refeval.Options{StopOnFirst: m.opts.StopOnFirst, NaiveDiscovery: m.naive})
			planned := (&Engine{Store: st, Env: simenv.NewSim(), Opts: m.opts}).Run(prog)
			if m.naive {
				// The scan lists instances in store order, the index by
				// class, so one spec's violations may come out in either
				// order; everything else must still be byte-identical.
				specOrder(interp)
				specOrder(planned)
			}
			if len(interp.SpecErrors) != 0 {
				t.Fatalf("seed %d %s: the suite does not evaluate: %q", seed, m.name, interp.SpecErrors)
			}
			if m.name == "parallel-1" {
				violations += len(interp.Violations)
				checked += interp.InstancesChecked
				for _, v := range interp.Violations {
					if strings.Contains(v.Message, "resolved to no values") {
						emptyRHS++
					}
				}
			}
			ib, pb := goldenJSON(t, interp), goldenJSON(t, planned)
			if !bytes.Equal(ib, pb) {
				t.Errorf("seed %d %s: planned report differs from interpreted\ninterpreted:\n%s\nplanned:\n%s", seed, m.name, ib, pb)
			}
		}
	}
	// The generator must keep producing the corners, or the identity
	// above proves nothing.
	if violations == 0 || checked == 0 || emptyRHS == 0 {
		t.Errorf("generated stores went bland: %d instances checked, %d violations, %d empty right-hand sides", checked, violations, emptyRHS)
	}
}

// specOrder sorts each spec's violations by key, keeping specs in
// execution order.
func specOrder(rep *report.Report) {
	sort.SliceStable(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Key < b.Key
	})
}

// TestCompartmentCancelMidGroup cancels from inside a compartment's group
// loop. The in-flight spec is rolled back — not counted, no violations, no
// spec error — and the report is marked Interrupted (DESIGN.md §7).
func TestCompartmentCancelMidGroup(t *testing.T) {
	st := config.NewStore()
	for c := 0; c < 300; c++ {
		cluster := config.Seg{Name: "Cluster", Inst: fmt.Sprintf("c%d", c), Index: c + 1}
		st.Add(&config.Instance{Key: config.Key{Segs: []config.Seg{cluster, {Name: "Lo"}}}, Value: "x", Source: "gen"})
	}
	// Spec 0 completes with 300 violations; spec 1 cancels in its tenth
	// group and would report 300 more if it were allowed to finish.
	prog := compileSrc(t, `
$Cluster.Lo -> int
compartment Cluster { $Lo -> ctxhook & bool }
$Cluster.Lo -> nonempty
`)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	ctxHook.Store(func() {
		if calls++; calls == 10 {
			cancel()
		}
	})
	defer ctxHook.Store(func() {})

	eng := New(st)
	eng.Opts.Parallel = 1
	rep := eng.RunContext(ctx, prog)
	done := assertCancelContract(t, prog, rep, [][]int{allSpecs(prog)})
	if !done[0] || done[1] || done[2] {
		t.Fatalf("completed specs = %v, want only spec 0", done)
	}
	if calls >= 300 {
		t.Errorf("the group loop ran all %d groups after the cancel", calls)
	}
	if len(rep.Violations) != 300 || rep.InstancesChecked != 300 {
		t.Errorf("%d violations over %d instances; want spec 0's 300 and nothing from the rolled-back spec", len(rep.Violations), rep.InstancesChecked)
	}
}
