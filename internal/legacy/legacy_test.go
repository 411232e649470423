package legacy

import (
	"sort"
	"strings"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/simenv"
	"confvalley/specs"
)

// cplKeys runs a CPL suite and returns the distinct violating keys.
func cplKeys(t *testing.T, st *config.Store, src string, env simenv.Env) []string {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	eng := &engine.Engine{Store: st, Env: simenv.NewSim()}
	if env != nil {
		eng.Env = env
	}
	rep := eng.Run(prog)
	if len(rep.SpecErrors) > 0 {
		t.Fatalf("spec errors: %v", rep.SpecErrors)
	}
	seen := make(map[string]bool)
	var out []string
	for _, v := range rep.Violations {
		if !seen[v.Key] {
			seen[v.Key] = true
			out = append(out, v.Key)
		}
	}
	sort.Strings(out)
	return out
}

func sorted(keys []string) []string {
	out := append([]string{}, keys...)
	sort.Strings(out)
	return out
}

func sameKeys(t *testing.T, name string, legacy, cpl []string) {
	t.Helper()
	l, c := strings.Join(sorted(legacy), "\n"), strings.Join(cpl, "\n")
	if l != c {
		t.Errorf("%s verdicts differ:\nlegacy:\n%s\ncpl:\n%s", name, l, c)
	}
}

func TestTypeADifferential(t *testing.T) {
	st := config.NewStore()
	azuregen.AddExpertSubstrate(st, 25, 9)
	env := azuregen.ExpertEnv()
	// Clean data: both report nothing.
	if keys := ValidateTypeA(st, env).Keys(); len(keys) != 0 {
		t.Fatalf("legacy flags clean data: %v", keys)
	}
	if keys := cplKeys(t, st, specs.AzureTypeA(), env); len(keys) != 0 {
		t.Fatalf("cpl flags clean data: %v", keys)
	}
	// Inject the full expert error catalog; both report the same keys.
	azuregen.InjectExpertErrors(st, 25, 4, 123)
	legacyKeys := ValidateTypeA(st, env).Keys()
	cpl := cplKeys(t, st, specs.AzureTypeA(), env)
	if len(legacyKeys) == 0 {
		t.Fatal("legacy missed all injected errors")
	}
	sameKeys(t, "Type A", legacyKeys, cpl)
}

func TestTypeBDifferential(t *testing.T) {
	corpus := azuregen.GenerateB(0.003, 17)
	st := corpus.Store
	if keys := ValidateTypeB(st).Keys(); len(keys) != 0 {
		t.Fatalf("legacy flags clean data: %v", keys[:min(len(keys), 5)])
	}
	if keys := cplKeys(t, st, specs.AzureTypeB(), nil); len(keys) != 0 {
		t.Fatalf("cpl flags clean data: %v", keys[:min(len(keys), 5)])
	}
	// Corrupt a few parameters by hand.
	corrupt := map[string]string{
		"Cluster.Node.NodeTimeout0":  "not-an-int", // const int class
		"Cluster.Node.NodeEndpoint3": "999999",     // ranged class, way out
		"Cluster.Node.NodeReplicas6": "",           // unique ip class, emptied
		"Cluster.Node.NodeLimit8":    "maybe",      // bool class
	}
	for class, bad := range corrupt {
		ins := st.ClassInstances(class)
		if len(ins) == 0 {
			t.Fatalf("missing class %s", class)
		}
		ins[len(ins)-1].Value = bad
	}
	st.InvalidateCache()
	legacyKeys := ValidateTypeB(st).Keys()
	cpl := cplKeys(t, st, specs.AzureTypeB(), nil)
	if len(legacyKeys) != len(corrupt) {
		t.Errorf("legacy reported %d keys, want %d: %v", len(legacyKeys), len(corrupt), legacyKeys)
	}
	sameKeys(t, "Type B", legacyKeys, cpl)
}

func TestTypeCDifferential(t *testing.T) {
	corpus := azuregen.GenerateC(1.0, 23)
	st := corpus.Store
	if keys := ValidateTypeC(st).Keys(); len(keys) != 0 {
		t.Fatalf("legacy flags clean data: %v", keys)
	}
	if keys := cplKeys(t, st, specs.AzureTypeC(), nil); len(keys) != 0 {
		t.Fatalf("cpl flags clean data: %v", keys)
	}
	// Corrupt one parameter of each family.
	mutateClassSuffix(t, st, "api_timeout_0", "soon")
	mutateClassSuffix(t, st, "db_port_1", "70000")
	mutateClassSuffix(t, st, "worker_retries_3", "9")
	st.InvalidateCache()
	legacyKeys := ValidateTypeC(st).Keys()
	cpl := cplKeys(t, st, specs.AzureTypeC(), nil)
	if len(legacyKeys) != 3 {
		t.Errorf("legacy reported %v", legacyKeys)
	}
	sameKeys(t, "Type C", legacyKeys, cpl)
}

func mutateClassSuffix(t *testing.T, st *config.Store, leafSuffix, bad string) {
	t.Helper()
	for _, in := range st.Instances() {
		if strings.HasSuffix(in.Key.Leaf(), leafSuffix) {
			in.Value = bad
			return
		}
	}
	t.Fatalf("no instance with leaf suffix %s", leafSuffix)
}

func TestOpenStackDifferential(t *testing.T) {
	st := config.NewStore()
	if _, err := driver.LoadInto(st, "yaml", specs.OpenStackConfig(), "openstack.yaml", ""); err != nil {
		t.Fatal(err)
	}
	if keys := ValidateOpenStack(st).Keys(); len(keys) != 0 {
		t.Fatalf("legacy flags clean data: %v", keys)
	}
	if keys := cplKeys(t, st, specs.OpenStack(), nil); len(keys) != 0 {
		t.Fatalf("cpl flags clean data: %v", keys)
	}
	// Break several settings.
	bad := map[string]string{
		"auth_protocol":        "gopher",
		"rabbit_password":      "changeme",
		"cpu_allocation_ratio": "64.0",
		"api_servers":          "10.0.0.9:9292,10.0.0.10:bad",
	}
	for _, in := range st.Instances() {
		if v, ok := bad[in.Key.Leaf()]; ok {
			in.Value = v
		}
	}
	st.InvalidateCache()
	legacyKeys := ValidateOpenStack(st).Keys()
	cpl := cplKeys(t, st, specs.OpenStack(), nil)
	if len(legacyKeys) != len(bad) {
		t.Errorf("legacy reported %v", legacyKeys)
	}
	sameKeys(t, "OpenStack", legacyKeys, cpl)
}

func TestCloudStackDifferential(t *testing.T) {
	st := config.NewStore()
	if _, err := driver.LoadInto(st, "json", specs.CloudStackConfig(), "cloudstack.json", ""); err != nil {
		t.Fatal(err)
	}
	if keys := ValidateCloudStack(st).Keys(); len(keys) != 0 {
		t.Fatalf("legacy flags clean data: %v", keys)
	}
	if keys := cplKeys(t, st, specs.CloudStack(), nil); len(keys) != 0 {
		t.Fatalf("cpl flags clean data: %v", keys)
	}
	// Break settings exercised by Listing 3's snippets.
	for _, in := range st.Instances() {
		switch {
		case in.Key.Leaf() == "alert.wait":
			in.Value = "-5"
		case in.Key.String() == "LoadBalancers::lb3[3].Address":
			in.Value = "10.1.1.1" // duplicate of lb1
		case in.Key.String() == "Zones::zone2[2].GuestCidr":
			in.Value = "10.2.0.0/40"
		}
	}
	st.InvalidateCache()
	legacyKeys := ValidateCloudStack(st).Keys()
	cpl := cplKeys(t, st, specs.CloudStack(), nil)
	if len(legacyKeys) != 3 {
		t.Errorf("legacy reported %v", legacyKeys)
	}
	sameKeys(t, "CloudStack", legacyKeys, cpl)
}

func TestModuleLoC(t *testing.T) {
	for _, f := range []string{"typea.go", "typeb.go", "typec.go", "openstack.go", "cloudstack.go"} {
		n, err := ModuleLoC(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if n < 50 {
			t.Errorf("%s LoC = %d, implausibly small", f, n)
		}
	}
	if _, err := ModuleLoC("missing.go"); err == nil {
		t.Error("missing module should error")
	}
}

// The LoC ratio the paper reports (Tables 3 and 4): the declarative
// rewrites are several times smaller than the imperative originals.
func TestCPLRewriteIsSmaller(t *testing.T) {
	pairs := []struct {
		module string
		suite  string
	}{
		{"typea.go", specs.AzureTypeA()},
		{"typeb.go", specs.AzureTypeB()},
		{"typec.go", specs.AzureTypeC()},
		{"openstack.go", specs.OpenStack()},
		{"cloudstack.go", specs.CloudStack()},
	}
	for _, p := range pairs {
		orig, err := ModuleLoC(p.module)
		if err != nil {
			t.Fatal(err)
		}
		cpl := specs.CountLoC(p.suite)
		if cpl*3 > orig {
			t.Errorf("%s: CPL %d lines vs imperative %d — expected ≥3x reduction", p.module, cpl, orig)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
