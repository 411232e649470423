package plan

import (
	"strings"
	"testing"
)

// fpStrings renders a footprint's patterns for containment checks.
func fpStrings(fp Footprint) map[string]bool {
	m := make(map[string]bool, len(fp.Patterns))
	for _, p := range fp.Patterns {
		m[p.String()] = true
	}
	return m
}

func footprintOf(t *testing.T, src string, specIdx int) Footprint {
	t.Helper()
	prog := mustCompile(t, src)
	p := For(prog)
	if specIdx >= len(p.Specs) {
		t.Fatalf("program has %d specs, want index %d", len(p.Specs), specIdx)
	}
	return p.Specs[specIdx].Footprint()
}

func requirePatterns(t *testing.T, fp Footprint, want ...string) {
	t.Helper()
	if fp.Dynamic {
		t.Fatalf("footprint unexpectedly dynamic")
	}
	got := fpStrings(fp)
	for _, w := range want {
		if !got[w] {
			t.Errorf("footprint missing pattern %q; have %v", w, fp.Patterns)
		}
	}
}

func TestFootprintBareRef(t *testing.T) {
	fp := footprintOf(t, "$App.Timeout -> int", 0)
	requirePatterns(t, fp, "App.Timeout")
	if len(fp.Patterns) != 1 {
		t.Errorf("bare ref footprint = %v, want exactly one pattern", fp.Patterns)
	}
}

// A namespaced spec may resolve its reference bare or under the
// namespace; a compartment spec bare or under the compartment. The
// executor stops at the first non-empty candidate, so every candidate
// belongs to the footprint.
func TestFootprintNamespaceAndCompartmentCandidates(t *testing.T) {
	src := `
namespace r.s {
  $k1 -> nonempty
}
compartment Cluster {
  $ProxyIP -> ip
  compartment Rack {
    $Blade.Location -> unique
  }
}
`
	fp := footprintOf(t, src, 0)
	requirePatterns(t, fp, "k1", "r.s.k1")
	fp = footprintOf(t, src, 1)
	requirePatterns(t, fp, "ProxyIP", "Cluster.ProxyIP")
	fp = footprintOf(t, src, 2)
	requirePatterns(t, fp, "Blade.Location", "Cluster.Rack.Blade.Location")
}

// Domains embedded in predicate position — relation right-hand sides,
// range bounds, enum members — are store reads and must appear in the
// footprint alongside the spec's own domain.
func TestFootprintPredicateEmbeddedDomains(t *testing.T) {
	fp := footprintOf(t, "$VLAN.StartIP <= $VLAN.EndIP", 0)
	requirePatterns(t, fp, "VLAN.StartIP", "VLAN.EndIP")

	fp = footprintOf(t, "$Pool.Size -> [$Pool.Min, $Pool.Max]", 0)
	requirePatterns(t, fp, "Pool.Size", "Pool.Min", "Pool.Max")

	fp = footprintOf(t, "count($MacRange) == count($IpRange)", 0)
	requirePatterns(t, fp, "MacRange", "IpRange")
}

// Conditional guards read the store too: both the condition's domain and
// any reference inside its predicate join the guarded spec's footprint.
func TestFootprintIncludesConditionReads(t *testing.T) {
	src := `
if (exists $RoutingEntry.Gateway -> == 'LoadBalancerGateway')
  $LoadBalancerSet.Device -> nonempty
`
	fp := footprintOf(t, src, 0)
	requirePatterns(t, fp, "RoutingEntry.Gateway", "LoadBalancerSet.Device")
}

// Pipelines keep a static footprint as long as their source does: the
// transform steps read pipeline elements, not the store.
func TestFootprintPipeStaysStatic(t *testing.T) {
	fp := footprintOf(t, "count($Cluster.*) -> [0, 10]", 0)
	requirePatterns(t, fp, "Cluster.*")

	fp = footprintOf(t, "$Node.Addr -> split(':') -> at(0) -> ip", 0)
	requirePatterns(t, fp, "Node.Addr")
}

// A condition-bound variable makes every reference using it
// data-dependent: the guarded spec is Dynamic with no patterns.
func TestFootprintBindingVarIsDynamic(t *testing.T) {
	src := `
if ($CloudName -> ~match('UtilityFabric')) {
  $Fabric::$CloudName.TenantName -> nonempty
}
`
	fp := footprintOf(t, src, 0)
	if !fp.Dynamic {
		t.Fatalf("binding-var spec not dynamic: %v", fp.Patterns)
	}
	if len(fp.Patterns) != 0 {
		t.Errorf("dynamic footprint kept patterns: %v", fp.Patterns)
	}
}

// Macros are inlined during the walk, so a macro body's reads land in
// the caller's footprint.
func TestFootprintMacroInlined(t *testing.T) {
	src := `
let SaneLimit := [$Defaults.Min, $Defaults.Max]
$Worker.Limit -> @SaneLimit
`
	fp := footprintOf(t, src, 0)
	requirePatterns(t, fp, "Worker.Limit", "Defaults.Min", "Defaults.Max")
}

// Dynamic footprints carry a human-readable reason naming the construct
// that defeated the static analysis.
func TestFootprintDynamicReason(t *testing.T) {
	fp := footprintOf(t, "$Fabric::$CloudName.TenantName -> nonempty", 0)
	if !fp.Dynamic {
		t.Fatal("variable ref footprint not dynamic")
	}
	if !strings.Contains(fp.Reason, "contains variables") {
		t.Errorf("Reason = %q, want mention of variables", fp.Reason)
	}
	if fp := footprintOf(t, "$App.Timeout -> int", 0); fp.Reason != "" {
		t.Errorf("static footprint Reason = %q, want empty", fp.Reason)
	}
}

// RefSites reports every reference with its source position and the
// prefix-expanded candidate set, in source order.
func TestRefSites(t *testing.T) {
	src := `namespace ns {
  $k1 -> nonempty
  $Fabric::$CloudName.TenantName -> ip
}`
	prog := mustCompile(t, src)
	sites := RefSites(prog, prog.Specs[0])
	if len(sites) != 1 {
		t.Fatalf("spec 0: %d sites, want 1", len(sites))
	}
	s := sites[0]
	if s.Pos.Line != 2 {
		t.Errorf("site pos = %s, want line 2", s.Pos)
	}
	if s.Pattern.String() != "k1" || s.HasVars {
		t.Errorf("site = %+v", s)
	}
	want := map[string]bool{"ns.k1": false, "k1": false}
	for _, c := range s.Candidates {
		if _, ok := want[c.String()]; ok {
			want[c.String()] = true
		}
	}
	for w, ok := range want {
		if !ok {
			t.Errorf("candidate %q missing from %v", w, s.Candidates)
		}
	}
	vs := RefSites(prog, prog.Specs[1])
	if len(vs) != 1 || !vs[0].HasVars || vs[0].Candidates != nil {
		t.Errorf("variable ref sites = %+v, want one HasVars site without candidates", vs)
	}
}
