package engine

import (
	"fmt"
	"strings"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/plan"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// run compiles src and validates it against the store, failing the test on
// compile or spec errors.
func run(t *testing.T, st *config.Store, src string) *report.Report {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := &Engine{Store: st, Env: simenv.NewSim()}
	rep := eng.Run(prog)
	for _, e := range rep.SpecErrors {
		t.Fatalf("spec error: %s", e)
	}
	return rep
}

func kv(st *config.Store, key, val string) {
	st.Add(&config.Instance{Key: config.K(strings.Split(key, ".")...), Value: val, Source: "test"})
}

func TestSimpleTypeValidation(t *testing.T) {
	st := config.NewStore()
	kv(st, "Fabric.Timeout", "30")
	kv(st, "Fabric.Retries", "three")
	rep := run(t, st, "$Fabric.Timeout -> int\n$Fabric.Retries -> int")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %d: %v", len(rep.Violations), rep.Violations)
	}
	v := rep.Violations[0]
	if v.Key != "Fabric.Retries" || !strings.Contains(v.Message, "not a valid int") {
		t.Errorf("violation = %+v", v)
	}
	if rep.SpecsRun == 0 || rep.InstancesChecked == 0 {
		t.Errorf("counters = %+v", rep)
	}
}

func TestRangeAndNonempty(t *testing.T) {
	st := config.NewStore()
	kv(st, "Fabric.AlertFailNodesThreshold", "10")
	kv(st, "Other.AlertFailNodesThreshold", "20") // different scope: not matched
	rep := run(t, st, "$Fabric.AlertFailNodesThreshold -> int & nonempty & [5,15]")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	st2 := config.NewStore()
	kv(st2, "Fabric.AlertFailNodesThreshold", "42")
	rep = run(t, st2, "$Fabric.AlertFailNodesThreshold -> int & nonempty & [5,15]")
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Message, "out of range") {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestEnumFromDomainValues(t *testing.T) {
	// "machinepool in cluster is one of the defined machinepool names"
	st := config.NewStore()
	kv(st, "MachinePool::a.Name", "poolA")
	kv(st, "MachinePool::b.Name", "poolB")
	kv(st, "Cluster::c1.MachinePool", "poolA")
	kv(st, "Cluster::c2.MachinePool", "poolX")
	rep := run(t, st, "$Cluster.MachinePool -> {$MachinePool.Name}")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if rep.Violations[0].Value != "poolX" {
		t.Errorf("violation = %+v", rep.Violations[0])
	}
}

func TestConsistencyWithinCompartmentDomain(t *testing.T) {
	// "#[Datacenter] $Machinepool.FillFactor# -> consistent": fill
	// factors must agree within a datacenter but may differ across.
	st := config.NewStore()
	kv(st, "Datacenter::dc1.Machinepool::m1.FillFactor", "0.8")
	kv(st, "Datacenter::dc1.Machinepool::m2.FillFactor", "0.8")
	kv(st, "Datacenter::dc2.Machinepool::m1.FillFactor", "0.9")
	kv(st, "Datacenter::dc2.Machinepool::m2.FillFactor", "0.9")
	rep := run(t, st, "#[Datacenter] $Machinepool.FillFactor# -> consistent")
	if !rep.Passed() {
		t.Errorf("cross-datacenter difference flagged: %v", rep.Violations)
	}
	kv(st, "Datacenter::dc2.Machinepool::m3.FillFactor", "0.5")
	rep = run(t, st, "#[Datacenter] $Machinepool.FillFactor# -> consistent")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Key, "dc2") {
		t.Errorf("wrong compartment blamed: %+v", rep.Violations[0])
	}
}

func TestGlobalConsistencyFlagsMinority(t *testing.T) {
	st := config.NewStore()
	kv(st, "A::1.OSPath", `\\share\OS\v2`)
	kv(st, "A::2.OSPath", `\\share\OS\v2`)
	kv(st, "A::3.OSPath", `\\share\OS\v3`)
	rep := run(t, st, "$A.OSPath -> consistent")
	if len(rep.Violations) != 1 || rep.Violations[0].Key != "A::3.OSPath" {
		t.Errorf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Message, "majority") {
		t.Errorf("message = %q", rep.Violations[0].Message)
	}
}

func TestCompartmentRangePairing(t *testing.T) {
	// Listing 5: IP in range within each cluster. 2 clusters with
	// disjoint ranges; Cartesian evaluation would wrongly pass c2's
	// proxy against c1's range.
	st := config.NewStore()
	kv(st, "Cluster::c1.StartIP", "10.0.1.1")
	kv(st, "Cluster::c1.EndIP", "10.0.1.100")
	kv(st, "Cluster::c1.ProxyIP", "10.0.1.50")
	kv(st, "Cluster::c2.StartIP", "10.0.2.1")
	kv(st, "Cluster::c2.EndIP", "10.0.2.100")
	kv(st, "Cluster::c2.ProxyIP", "10.0.1.50") // wrong: c1's range
	rep := run(t, st, "compartment Cluster { $ProxyIP -> [$StartIP, $EndIP] }")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Key, "c2") {
		t.Errorf("wrong instance blamed: %+v", rep.Violations[0])
	}
}

func TestCompartmentSkipsInstancesMissingKeys(t *testing.T) {
	st := config.NewStore()
	kv(st, "Cluster::c1.StartIP", "10.0.1.1")
	kv(st, "Cluster::c1.EndIP", "10.0.1.100")
	kv(st, "Cluster::c1.ProxyIP", "10.0.1.50")
	kv(st, "Cluster::c2.Other", "x") // no ProxyIP: skipped, not an error
	rep := run(t, st, "compartment Cluster { $ProxyIP -> [$StartIP, $EndIP] }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestUniquenessPerCompartment(t *testing.T) {
	// Blade location unique within a rack, reusable across racks (§4.2.2).
	st := config.NewStore()
	kv(st, "Rack::r1.Blade::b1.Location", "1")
	kv(st, "Rack::r1.Blade::b2.Location", "2")
	kv(st, "Rack::r2.Blade::b1.Location", "1") // same location, other rack: fine
	rep := run(t, st, "compartment Rack { $Blade.Location -> unique }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	kv(st, "Rack::r2.Blade::b9.Location", "1") // duplicate within r2
	rep = run(t, st, "compartment Rack { $Blade.Location -> unique }")
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Key, "r2.Blade::b9") {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestStatementLevelRelation(t *testing.T) {
	st := config.NewStore()
	kv(st, "VLAN::v1.StartIP", "10.0.0.1")
	kv(st, "VLAN::v1.EndIP", "10.0.0.9")
	kv(st, "VLAN::v2.StartIP", "10.0.1.9")
	kv(st, "VLAN::v2.EndIP", "10.0.1.1") // reversed
	rep := run(t, st, "compartment VLAN { $StartIP <= $EndIP }")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Key, "v2") {
		t.Errorf("wrong VLAN blamed: %+v", rep.Violations[0])
	}
}

func TestIfStatementGlobalCondition(t *testing.T) {
	st := config.NewStore()
	kv(st, "RoutingEntry::r1.Gateway", "LoadBalancerGateway")
	kv(st, "LoadBalancerSet::l1.Device", "")
	src := `
if (exists $RoutingEntry.Gateway == 'LoadBalancerGateway')
  $LoadBalancerSet.Device -> nonempty
`
	rep := run(t, st, src)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	// Flip: no routing entry points at the LB, so the body is skipped.
	st2 := config.NewStore()
	kv(st2, "RoutingEntry::r1.Gateway", "DirectGateway")
	kv(st2, "LoadBalancerSet::l1.Device", "")
	rep = run(t, st2, src)
	if !rep.Passed() {
		t.Errorf("condition should gate the body: %v", rep.Violations)
	}
}

func TestIfElseVariableBinding(t *testing.T) {
	// Listing 5's $CloudName idiom: per-cloud conditional validation.
	st := config.NewStore()
	kv(st, "CloudName[1]", "ProdCloud")
	kv(st, "CloudName[2]", "UtilityFabricCloud")
	kv(st, "Fabric::ProdCloud.TenantName", "ufc1:rest")
	kv(st, "Fabric::UtilityFabricCloud.TenantName", "")
	kv(st, "UfcName", "ufc1")
	src := `
if ($CloudName -> ~match('UtilityFabric')) {
  $Fabric::$CloudName.TenantName -> split(':') -> at(0) -> $_ == $UfcName
} else {
  $Fabric::$CloudName.TenantName -> ~nonempty
}
`
	rep := run(t, st, src)
	if !rep.Passed() {
		t.Fatalf("violations = %v", rep.Violations)
	}
	// Break the prod cloud prefix.
	st.Add(&config.Instance{Key: config.K("Fabric::ProdCloud", "TenantName2"), Value: "x"})
	st2 := config.NewStore()
	kv(st2, "CloudName[1]", "ProdCloud")
	kv(st2, "Fabric::ProdCloud.TenantName", "WRONG:rest")
	kv(st2, "UfcName", "ufc1")
	rep = run(t, st2, src)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Key, "ProdCloud") {
		t.Errorf("violation = %+v", rep.Violations[0])
	}
}

// TestBindingVariableInStepGuard: a condition's reference binds its leaf
// as a variable wherever the body uses it — here only inside a pipeline
// step guard — on both executors.
func TestBindingVariableInStepGuard(t *testing.T) {
	st := config.NewStore()
	kv(st, "CloudName", "UtilityFabric")
	kv(st, "Fabric::UtilityFabric.Expected", "a:b")
	kv(st, "Setting", "a:b")
	const tmpl = `if ($CloudName -> match('UtilityFabric')) {
  $Setting -> if (== $Fabric::$CloudName.Expected) split(':') -> at(0) -> == '%s'
}`
	for _, interpret := range []bool{false, true} {
		for _, c := range []struct {
			want       string
			violations int
		}{{"a", 0}, {"zzz", 1}} {
			prog, err := compiler.Compile(fmt.Sprintf(tmpl, c.want))
			if err != nil {
				t.Fatal(err)
			}
			var rep *report.Report
			if interpret {
				rep = refRun(st, prog, refeval.Options{})
			} else {
				rep = (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
			}
			if len(rep.SpecErrors) != 0 || rep.InstancesChecked != 1 || len(rep.Violations) != c.violations {
				t.Errorf("interpret=%v, == '%s': errors %v, %d instance(s) checked, violations %v; want no error, 1 instance, %d violation(s)",
					interpret, c.want, rep.SpecErrors, rep.InstancesChecked, rep.Violations, c.violations)
			}
		}
	}
}

func TestPipelineSplitAt(t *testing.T) {
	st := config.NewStore()
	kv(st, "Endpoint", "cache01:6379")
	rep := run(t, st, "$Endpoint -> split(':') -> at(1) -> port")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	st2 := config.NewStore()
	kv(st2, "Endpoint", "cache01:notaport")
	rep = run(t, st2, "$Endpoint -> split(':') -> at(1) -> port")
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestVipRangesPipeline(t *testing.T) {
	// The full Listing 5 finale: VipRanges like 'ip1-ip2;ip3-ip4', each
	// endpoint within some cluster range.
	st := config.NewStore()
	kv(st, "MachinPoolName[1]", "poolA")
	kv(st, "MachinPool::poolA.LoadBalancer.VipRanges", "10.0.0.5-10.0.0.9;10.0.0.20-10.0.0.30")
	kv(st, "StartIP", "10.0.0.1")
	kv(st, "EndIP", "10.0.0.100")
	src := `$MachinPoolName -> foreach($MachinPool::$_.LoadBalancer.VipRanges)
 -> split(';') -> if (nonempty) split('-')
 -> [at(0), at(1)] -> exists [$StartIP, $EndIP]`
	rep := run(t, st, src)
	if !rep.Passed() {
		t.Fatalf("violations = %v", rep.Violations)
	}
	// An out-of-range VIP pair is caught.
	st2 := config.NewStore()
	kv(st2, "MachinPoolName[1]", "poolA")
	kv(st2, "MachinPool::poolA.LoadBalancer.VipRanges", "10.9.0.5-10.9.0.9")
	kv(st2, "StartIP", "10.0.0.1")
	kv(st2, "EndIP", "10.0.0.100")
	rep = run(t, st2, src)
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestGuardedStepDropsElements(t *testing.T) {
	st := config.NewStore()
	kv(st, "IPv6Prefix[1]", "")
	kv(st, "IPv6Prefix[2]", "fe80::/10")
	// Empty values are dropped by the guard; the nonempty one must be a
	// CIDR.
	rep := run(t, st, "$IPv6Prefix -> if (nonempty) trim() -> cidr")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestOrMacroAndNot(t *testing.T) {
	st := config.NewStore()
	kv(st, "IPv6Prefix[1]", "")
	kv(st, "IPv6Prefix[2]", "fe80::/10")
	kv(st, "IPv6Prefix[3]", "not-a-cidr")
	src := `
let UniqueCIDR := unique & cidr
$IPv6Prefix -> ~nonempty | @UniqueCIDR
`
	rep := run(t, st, src)
	if len(rep.Violations) != 1 || rep.Violations[0].Value != "not-a-cidr" {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Message, "and") {
		t.Errorf("or-failure message should mention both branches: %q", rep.Violations[0].Message)
	}
}

func TestQuantifiers(t *testing.T) {
	st := config.NewStore()
	kv(st, "Cluster::a.Role", "worker")
	kv(st, "Cluster::b.Role", "controller")
	kv(st, "Cluster::c.Role", "worker")
	if rep := run(t, st, "exists $Cluster.Role -> == 'controller'"); !rep.Passed() {
		t.Errorf("exists failed: %v", rep.Violations)
	}
	if rep := run(t, st, "one $Cluster.Role -> == 'controller'"); !rep.Passed() {
		t.Errorf("one failed: %v", rep.Violations)
	}
	if rep := run(t, st, "one $Cluster.Role -> == 'worker'"); len(rep.Violations) != 1 {
		t.Errorf("one should fail with 2 workers: %v", rep.Violations)
	}
	if rep := run(t, st, "exists $Cluster.Role -> == 'gateway'"); len(rep.Violations) != 1 {
		t.Errorf("exists should fail: %v", rep.Violations)
	}
}

func TestPathExistsAgainstEnvironment(t *testing.T) {
	st := config.NewStore()
	kv(st, "OSBuildPath", `\\share\OS\v2`)
	prog, err := compiler.Compile("$OSBuildPath -> path & exists")
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Store: st, Env: simenv.NewSim()}
	env := simenv.NewSim()
	env.AddPath(`\\share\OS\v2`)
	eng.Env = env
	rep := eng.Run(prog)
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	eng2 := &Engine{Store: st, Env: simenv.NewSim()} // empty env: path missing
	rep = eng2.Run(prog)
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Message, "does not exist") {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestCountComparison(t *testing.T) {
	// "inconsistent number of addresses in MAC range and IP range".
	st := config.NewStore()
	kv(st, "MacRange", "00:00:5e:00:01:01;00:00:5e:00:01:02")
	kv(st, "IpRange", "10.0.0.1;10.0.0.2;10.0.0.3")
	rep := run(t, st, "count(split($MacRange, ';')) == count(split($IpRange, ';'))")
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	st2 := config.NewStore()
	kv(st2, "MacRange", "00:00:5e:00:01:01;00:00:5e:00:01:02")
	kv(st2, "IpRange", "10.0.0.1;10.0.0.2")
	rep = run(t, st2, "count(split($MacRange, ';')) == count(split($IpRange, ';'))")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestNamespaceResolution(t *testing.T) {
	st := config.NewStore()
	kv(st, "r.s.k1", "5")
	kv(st, "k2", "7")
	rep := run(t, st, "namespace r.s { $k1 -> int\n$k2 -> int }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	if rep.InstancesChecked != 2 {
		t.Errorf("instances checked = %d, want 2 (k1 via prefix, k2 via fallback)", rep.InstancesChecked)
	}
}

func TestArithmeticDomains(t *testing.T) {
	st := config.NewStore()
	kv(st, "MinReplicas", "2")
	kv(st, "MaxReplicas", "5")
	rep := run(t, st, "$MaxReplicas - $MinReplicas -> [0, 10]")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	rep = run(t, st, "$MinReplicas - $MaxReplicas -> [0, 10]")
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestStopOnFirstPolicy(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "x")
	kv(st, "B", "y")
	rep := run(t, st, "policy on_violation 'stop'\n$A -> int\n$B -> int")
	if !rep.Stopped {
		t.Error("expected stopped report")
	}
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %d, want 1 (stopped)", len(rep.Violations))
	}
}

// TestStopPolicyIsPerRun: one program's on_violation 'stop' ends that
// run only; the same engine then runs a program without the policy to
// the end.
func TestStopPolicyIsPerRun(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "x")
	kv(st, "B", "y")
	eng := &Engine{Store: st, Env: simenv.NewSim()}
	for _, c := range []struct {
		src     string
		want    int
		stopped bool
	}{
		{"policy on_violation 'stop'\n$A -> int\n$B -> int", 1, true},
		{"$A -> int\n$B -> int", 2, false},
	} {
		prog, err := compiler.Compile(c.src)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		rep := eng.Run(prog)
		if len(rep.Violations) != c.want || rep.Stopped != c.stopped {
			t.Fatalf("%q: violations = %d, stopped = %t; want %d, %t",
				c.src, len(rep.Violations), rep.Stopped, c.want, c.stopped)
		}
	}
}

func TestSeverityPropagates(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "x")
	rep := run(t, st, "policy severity 'critical'\n$A -> int")
	if rep.Violations[0].Severity != report.Critical {
		t.Errorf("severity = %v", rep.Violations[0].Severity)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	st := config.NewStore()
	for i := 0; i < 50; i++ {
		kv(st, fmt.Sprintf("Cluster::c%d.Timeout", i), fmt.Sprintf("%d", i))
		kv(st, fmt.Sprintf("Cluster::c%d.Name", i), fmt.Sprintf("cl%d", i))
	}
	src := `
$Cluster.Timeout -> int & [0, 30]
$Cluster.Name -> nonempty & match('cl*')
$Cluster.Timeout -> unique
`
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	seq := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
	par := &Engine{Store: st, Env: simenv.NewSim(), Opts: Options{Parallel: 4}}
	parRep := par.Run(prog)
	if len(seq.Violations) != len(parRep.Violations) {
		t.Errorf("sequential %d violations, parallel %d", len(seq.Violations), len(parRep.Violations))
	}
	if seq.SpecsRun != parRep.SpecsRun {
		t.Errorf("specs run: %d vs %d", seq.SpecsRun, parRep.SpecsRun)
	}
}

func TestNaiveDiscoveryAgrees(t *testing.T) {
	st := config.NewStore()
	kv(st, "Fabric.Timeout", "abc")
	prog, _ := compiler.Compile("$Fabric.Timeout -> int")
	rep := refRun(st, prog, refeval.Options{NaiveDiscovery: true})
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

// TestNaiveDiscoveryInterprets: the naive scan is the paper's pre-§5.2
// implementation, an option of the reference interpreter, which never
// lowers the program.
func TestNaiveDiscoveryInterprets(t *testing.T) {
	st := config.NewStore()
	kv(st, "Fabric.Timeout", "abc")
	prog, err := compiler.Compile("$Fabric.Timeout -> int")
	if err != nil {
		t.Fatal(err)
	}
	n0 := plan.Lowerings()
	refRun(st, prog, refeval.Options{NaiveDiscovery: true})
	if n := plan.Lowerings(); n != n0 {
		t.Errorf("a naive-discovery run lowered its program %d time(s)", n-n0)
	}
}

func TestSpecErrorsReported(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "1;2")
	prog, err := compiler.Compile("$A -> split(';') -> at(9) -> int")
	if err != nil {
		t.Fatal(err)
	}
	rep := (&Engine{Store: st, Env: simenv.NewSim()}).Run(prog)
	if len(rep.SpecErrors) != 1 || !strings.Contains(rep.SpecErrors[0], "out of bounds") {
		t.Errorf("spec errors = %v", rep.SpecErrors)
	}
}

func TestEmptyDomainIsVacuous(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "1")
	rep := run(t, st, "$NoSuchKey -> int")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestIfPredConditional(t *testing.T) {
	st := config.NewStore()
	kv(st, "Proxy::a.Endpoint", "https://a.example.com")
	kv(st, "Proxy::a.SSL", "true")
	kv(st, "Proxy::b.Endpoint", "http://b.example.com")
	kv(st, "Proxy::b.SSL", "true")
	// Endpoint must be https when SSL enabled: per-compartment pairing.
	src := `
compartment Proxy {
  if (exists $SSL == 'true') $Endpoint -> startswith('https://')
}
`
	rep := run(t, st, src)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if !strings.Contains(rep.Violations[0].Key, "Proxy::b") {
		t.Errorf("violation = %+v", rep.Violations[0])
	}
}

func TestReportGrouping(t *testing.T) {
	st := config.NewStore()
	kv(st, "X[1]", "a")
	kv(st, "X[2]", "b")
	kv(st, "X[3]", "c")
	kv(st, "Y", "zz")
	rep := run(t, st, "$X -> int\n$Y -> bool")
	groups := rep.GroupByConstraint()
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	if len(groups[0].Violations) != 3 {
		t.Errorf("largest group first: %d", len(groups[0].Violations))
	}
}
