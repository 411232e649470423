package plan

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/driver"
	"confvalley/internal/infer"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

// The read-set oracle: footprints are checked against what the executor
// actually reads. Every query a spec makes goes through Ctx.discover, so
// recording its answers gives the spec's real read set. For a spec that
// is not Dynamic, each instance read must match a pattern of the spec's
// footprint — the incremental engine re-runs a spec only when a changed
// key matches one — and be kept by the program's projection, which is
// all a projected full run loads.

// checkReadSet runs every spec of prog, one at a time, against st and
// fails on the first read its footprint or the projection misses. It
// returns how many instances the non-Dynamic specs read, so a caller can
// tell a vacuous pass.
func checkReadSet(t testing.TB, prog *compiler.Program, st *config.Store, env simenv.Env) int {
	t.Helper()
	p := Lower(prog)
	rt := &Runtime{Snap: st.Snapshot(), Env: env}
	var node *SpecNode
	var miss string
	reads := 0
	discoverHook = func(q config.Query, ins []*config.Instance) {
		if node.fp.Dynamic || miss != "" {
			return
		}
		for _, in := range ins {
			reads++
			if !matchesAny(node.fp.Patterns, in.Key) {
				miss = fmt.Sprintf("query %s read %s, which no footprint pattern matches (footprint %v)", q.Pattern, in.Key, node.fp.Patterns)
				return
			}
			if p.Projection != nil && !p.Projection.Keeps(in.Key) {
				miss = fmt.Sprintf("query %s read %s, which the projection drops", q.Pattern, in.Key)
				return
			}
		}
	}
	defer func() { discoverHook = nil }()
	for _, n := range p.Specs {
		node = n
		n.Run(rt, &report.Report{})
		if miss != "" {
			t.Fatalf("spec %q: %s", n.Spec.Text, miss)
		}
	}
	return reads
}

func matchesAny(pats []config.Pattern, k config.Key) bool {
	for _, p := range pats {
		if p.MatchKey(k) {
			return true
		}
	}
	return false
}

// readSetSuite is one shipped suite over the store it is written for.
type readSetSuite struct {
	name string
	src  string
	st   *config.Store
	env  simenv.Env
}

func shippedSuites(t testing.TB) []readSetSuite {
	t.Helper()
	load := func(format string, data []byte, name string) *config.Store {
		st := config.NewStore()
		if _, err := driver.LoadInto(st, format, data, name, ""); err != nil {
			t.Fatal(err)
		}
		return st
	}
	a := azuregen.GenerateA(0.2, 2015)
	b := azuregen.GenerateB(0.002, 2015)
	azuregen.InjectInferredErrors(b, 6, 2, 2015)
	c := azuregen.GenerateC(0.05, 2015)
	expert := config.NewStore()
	clusters := azuregen.AddExpertSubstrate(expert, 40, 2015)
	azuregen.InjectExpertErrors(expert, clusters, 12, 2015)
	return []readSetSuite{
		{"typeA-inferred", infer.Infer(a.Store, infer.Defaults()).GenerateCPL(), a.Store, simenv.NewSim()},
		{"expert", specs.AzureTypeA(), expert, azuregen.ExpertEnv()},
		{"typeB", specs.AzureTypeB(), b.Store, simenv.NewSim()},
		{"typeC", specs.AzureTypeC(), c.Store, simenv.NewSim()},
		{"openstack", specs.OpenStack(), load("yaml", specs.OpenStackConfig(), "openstack.yaml"), simenv.NewSim()},
		{"cloudstack", specs.CloudStack(), load("json", specs.CloudStackConfig(), "cloudstack.json"), simenv.NewSim()},
	}
}

// TestReadSetOracle runs the oracle over every shipped suite, compiled
// with and without the optimizer, against the store it is written for.
func TestReadSetOracle(t *testing.T) {
	for _, s := range shippedSuites(t) {
		for _, optimize := range []bool{false, true} {
			prog, err := compiler.CompileWith(s.src, compiler.Options{Optimize: optimize})
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			reads := checkReadSet(t, prog, s.st, s.env)
			t.Logf("%s (optimize %v): %d specs read %d instances of %d", s.name, optimize, len(prog.Specs), reads, s.st.Snapshot().Len())
			if reads == 0 {
				t.Errorf("%s (optimize %v): no spec read anything; the oracle checked nothing", s.name, optimize)
			}
		}
	}
}

// generatedStore builds a store the references of prog can read,
// without the footprint walk it is meant to check: every variable-free
// reference written anywhere in the program (conditions, domains,
// predicates, macro bodies), bare and under every namespace and
// compartment the program names, as two instances of a key it matches —
// wildcards filled in, instance and ordinal constraints honoured — with
// values that differ, plus a class no spec names.
func generatedStore(prog *compiler.Program) *config.Store {
	var refs []config.Pattern
	prefixes := []config.Pattern{{}}
	var comps []config.Pattern
	collect := func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.Ref:
			if !t.Pattern.HasVars() {
				refs = append(refs, t.Pattern)
			}
		case *ast.CompartmentDomain:
			comps = append(comps, t.Scope)
		}
		return true
	}
	for _, m := range prog.Macros {
		ast.Inspect(m, collect)
	}
	for _, spec := range prog.Specs {
		for _, c := range spec.Conds {
			ast.Inspect(c.Spec, collect)
		}
		for _, d := range spec.Domains {
			ast.Inspect(d, collect)
		}
		ast.Inspect(spec.Pred, collect)
		prefixes = append(prefixes, spec.Namespaces...)
		if spec.Compartment != nil {
			comps = append(comps, *spec.Compartment)
		}
	}
	for _, comp := range comps {
		for _, p := range slices.Clone(prefixes) {
			prefixes = append(prefixes, p.Prefixed(comp))
		}
	}
	st := config.NewStore()
	seen := make(map[string]bool)
	for _, ref := range refs {
		for _, pre := range prefixes {
			pat := ref.Prefixed(pre)
			for i, val := range []string{"1", "a,b"} {
				segs := make([]config.Seg, len(pat.Segs))
				for j, ps := range pat.Segs {
					segs[j] = config.Seg{Name: strings.ReplaceAll(ps.Name, "*", "x"), Inst: strings.ReplaceAll(ps.Inst, "*", "x"), Index: ps.Index}
					if segs[j].Name == "" {
						segs[j].Name = "x"
					}
					if segs[j].Inst == "" && j < len(pat.Segs)-1 {
						segs[j].Inst = fmt.Sprintf("i%d", i)
					}
				}
				k := config.Key{Segs: segs}
				if seen[k.String()+val] {
					continue
				}
				seen[k.String()+val] = true
				st.Add(&config.Instance{Key: k, Value: val, Source: "generated"})
			}
		}
	}
	st.Add(&config.Instance{Key: config.K("Unread", "Param"), Value: "1", Source: "generated"})
	return st
}
