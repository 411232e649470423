package azuregen

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/infer"
	"confvalley/internal/report"
)

func TestGenerateADeterministicAndSized(t *testing.T) {
	a1 := GenerateA(0.1, 42)
	a2 := GenerateA(0.1, 42)
	if a1.Classes != a2.Classes || a1.Instances != a2.Instances {
		t.Fatalf("non-deterministic sizes: %d/%d vs %d/%d", a1.Classes, a1.Instances, a2.Classes, a2.Instances)
	}
	if a1.Classes < 130 || a1.Classes > 145 {
		t.Errorf("classes = %d, want ≈139 at scale 0.1", a1.Classes)
	}
	avg := float64(a1.Instances) / float64(a1.Classes)
	if avg < 35 || avg > 60 {
		t.Errorf("avg instances per class = %.1f, want ≈48", avg)
	}
	// Same seed, same content.
	i1, i2 := a1.Store.Instances(), a2.Store.Instances()
	for i := range i1 {
		if i1[i].Key.String() != i2[i].Key.String() || i1[i].Value != i2[i].Value {
			t.Fatalf("instance %d differs between identical seeds", i)
		}
	}
	// Different seed, different content somewhere.
	a3 := GenerateA(0.1, 43)
	same := true
	i3 := a3.Store.Instances()
	for i := 0; i < len(i1) && i < len(i3); i++ {
		if i1[i].Value != i3[i].Value {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical values")
	}
}

func TestGenerateBShape(t *testing.T) {
	b := GenerateB(0.002, 7)
	if b.Classes != 162 {
		t.Errorf("classes = %d, want 162", b.Classes)
	}
	perClass := b.Instances / b.Classes
	if perClass < 20 || perClass > 40 {
		t.Errorf("instances per class = %d at scale 0.002", perClass)
	}
}

func TestGenerateCShape(t *testing.T) {
	c := GenerateC(1.0, 7)
	if c.Classes != 95 {
		t.Errorf("classes = %d, want 95", c.Classes)
	}
	if c.Instances != 95*24 {
		t.Errorf("instances = %d, want 2280", c.Instances)
	}
}

func TestTypeAInferenceShape(t *testing.T) {
	// The Table 5 shape: most classes typed, roughly half consistent,
	// modest range and uniqueness tails; Figure 5: a small bucket of
	// zero-constraint classes.
	a := GenerateA(0.3, 11)
	res := infer.Infer(a.Store, infer.Defaults())
	counts := res.CountByKind()
	n := float64(a.Classes)
	frac := func(k string) float64 { return float64(counts[k]) / n }
	if f := frac("Type"); f < 0.45 || f > 0.90 {
		t.Errorf("Type fraction = %.2f (counts %v)", f, counts)
	}
	if f := frac("Consistency"); f < 0.30 || f > 0.70 {
		t.Errorf("Consistency fraction = %.2f", f)
	}
	if f := frac("Range"); f < 0.05 || f > 0.30 {
		t.Errorf("Range fraction = %.2f", f)
	}
	if f := frac("Uniqueness"); f < 0.02 || f > 0.15 {
		t.Errorf("Uniqueness fraction = %.2f", f)
	}
	if counts["Equality"] == 0 {
		t.Error("no equality constraints inferred; shared pools broken")
	}
	h := res.Histogram(4)
	if h[0] == 0 {
		t.Error("expected some zero-constraint classes (IncidentOwner-style)")
	}
	if float64(h[0])/n > 0.20 {
		t.Errorf("too many zero-constraint classes: %d of %d", h[0], a.Classes)
	}
	// Majority of classes have at least 2 constraints (Figure 5).
	atLeast2 := 0
	for i := 2; i < len(h); i++ {
		atLeast2 += h[i]
	}
	if float64(atLeast2)/n < 0.5 {
		t.Errorf("only %d/%d classes have ≥2 constraints", atLeast2, a.Classes)
	}
}

func TestGoodCorpusPassesItsOwnInferredSpecs(t *testing.T) {
	a := GenerateA(0.15, 5)
	res := infer.Infer(a.Store, infer.Defaults())
	prog, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		t.Fatalf("inferred CPL does not compile: %v", err)
	}
	rep := engine.New(a.Store).Run(prog)
	if len(rep.SpecErrors) > 0 {
		t.Fatalf("spec errors: %v", rep.SpecErrors)
	}
	if len(rep.Violations) != 0 {
		for i, v := range rep.Violations {
			if i > 5 {
				break
			}
			t.Logf("  %s", v)
		}
		t.Errorf("good corpus violates its own inferred specs: %d violations", len(rep.Violations))
	}
}

func TestExpertSubstratePassesExpertSpecs(t *testing.T) {
	st := config.NewStore()
	AddExpertSubstrate(st, 20, 3)
	prog, err := compiler.Compile(ExpertSpecs)
	if err != nil {
		t.Fatalf("expert specs do not compile: %v", err)
	}
	eng := engine.New(st)
	eng.Env = ExpertEnv()
	rep := eng.Run(prog)
	if len(rep.SpecErrors) > 0 {
		t.Fatalf("spec errors: %v", rep.SpecErrors)
	}
	if len(rep.Violations) != 0 {
		for _, v := range rep.Violations {
			t.Logf("  %s", v)
		}
		t.Fatalf("clean substrate violates expert specs: %d", len(rep.Violations))
	}
}

func TestExpertErrorInjectionCaught(t *testing.T) {
	st := config.NewStore()
	AddExpertSubstrate(st, 20, 3)
	inj := InjectExpertErrors(st, 20, 4, 99)
	if len(inj) != 4 {
		t.Fatalf("injected = %d", len(inj))
	}
	prog, _ := compiler.Compile(ExpertSpecs)
	eng := engine.New(st)
	eng.Env = ExpertEnv()
	rep := eng.Run(prog)
	// Every injection is reported, and every reported key attributes to
	// an injection.
	keys := distinctKeys(rep)
	for _, i := range inj {
		found := false
		for _, k := range keys {
			if i.Matches(k) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("injected error %s at %s not reported", i.Kind, i.Key)
		}
	}
	for _, k := range keys {
		attributed := false
		for _, i := range inj {
			if i.Matches(k) {
				attributed = true
				break
			}
		}
		if !attributed {
			t.Errorf("unexpected violation at %s", k)
		}
	}
}

func TestBranchExperimentReproducesTables6And7(t *testing.T) {
	setups := []BranchSetup{
		{Name: "T", ExpertErrors: 2, TrueInferred: 5, BenignDrifts: 2},
	}
	good, branches := GenerateBranches(0.15, 21, setups)
	res := infer.Infer(good.Store, infer.Defaults())
	inferredProg, err := compiler.Compile(res.GenerateCPL())
	if err != nil {
		t.Fatal(err)
	}
	expertProg, err := compiler.Compile(ExpertSpecs)
	if err != nil {
		t.Fatal(err)
	}
	br := branches[0]
	// Expert run: every expert injection reported, nothing spurious.
	expEng := engine.New(br.Store)
	expEng.Env = ExpertEnv()
	expRep := expEng.Run(expertProg)
	expMatched, expUnattributed := MatchReport(br.Injected, distinctKeys(expRep))
	expectedExpert := 0
	for _, i := range br.Injected {
		if strings.HasPrefix(i.Kind, "expert:") {
			expectedExpert++
		}
	}
	if len(expUnattributed) != 0 {
		t.Errorf("expert run: unattributed violations %v", expUnattributed)
	}
	expertMatched := 0
	for _, i := range expMatched {
		if strings.HasPrefix(i.Kind, "expert:") {
			expertMatched++
		}
	}
	if expertMatched != expectedExpert {
		t.Errorf("expert run matched %d injections, want %d", expertMatched, expectedExpert)
	}
	// Inferred run: catches true + benign injections, nothing else.
	infEng := engine.New(br.Store)
	infEng.Env = ExpertEnv()
	infRep := infEng.Run(inferredProg)
	if len(infRep.SpecErrors) > 0 {
		t.Fatalf("spec errors: %v", infRep.SpecErrors)
	}
	infMatched, infUnattributed := MatchReport(br.Injected, distinctKeys(infRep))
	if len(infUnattributed) != 0 {
		t.Errorf("inferred run: unattributed violations %v", infUnattributed)
	}
	trueN, fpN := 0, 0
	for _, i := range infMatched {
		if strings.HasPrefix(i.Kind, "expert:") {
			continue
		}
		if i.TrueError {
			trueN++
		} else {
			fpN++
		}
	}
	if trueN != 5 || fpN != 2 {
		t.Errorf("inferred run: %d true + %d FP, want 5 + 2", trueN, fpN)
	}
}

func distinctKeys(rep *report.Report) []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range rep.Violations {
		if !seen[v.Key] {
			seen[v.Key] = true
			out = append(out, v.Key)
		}
	}
	return out
}

func TestRenderersRoundTrip(t *testing.T) {
	st := config.NewStore()
	st.Add(&config.Instance{Key: config.K("api", "timeout"), Value: "30s"})
	st.Add(&config.Instance{Key: config.K("api", "port"), Value: "8080"})
	st.Add(&config.Instance{Key: config.K("toplevel"), Value: "x"})

	kvData := RenderKV(st)
	st2 := config.NewStore()
	if _, err := driver.LoadInto(st2, "kv", kvData, "t.kv", ""); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != st.Len() {
		t.Errorf("kv round trip: %d vs %d", st2.Len(), st.Len())
	}

	iniData := RenderINI(st)
	st3 := config.NewStore()
	if _, err := driver.LoadInto(st3, "ini", iniData, "t.ini", ""); err != nil {
		t.Fatal(err)
	}
	if st3.Len() != st.Len() {
		t.Errorf("ini round trip: %d vs %d", st3.Len(), st.Len())
	}

	xmlData := RenderXML(st)
	st4 := config.NewStore()
	if _, err := driver.LoadInto(st4, "xml", xmlData, "t.xml", ""); err != nil {
		t.Fatal(err)
	}
	if st4.Len() != st.Len() {
		t.Errorf("xml round trip: %d vs %d", st4.Len(), st.Len())
	}
}

// The gate bench/ holds its own renderer to: a rendered-and-reparsed
// corpus checks as many instances as the generator's store (never 0) and
// reports the same violations by (spec, class, value). Keys are not
// compared: the xml driver numbers scopes the generator left unnumbered.
func TestRenderXMLValidatesWhatTheStoreValidates(t *testing.T) {
	good := GenerateA(0.15, 5)
	prog, err := compiler.Compile(infer.Infer(good.Store, infer.Defaults()).GenerateCPL())
	if err != nil {
		t.Fatalf("inferred CPL does not compile: %v", err)
	}
	bad := GenerateA(0.15, 5)
	injected := InjectInferredErrors(bad, 8, 0, 6)
	own := engine.New(bad.Store).Run(prog)
	if len(own.Violations) < len(injected) || own.InstancesChecked == 0 {
		t.Fatalf("generator's store: %d violations for %d injected errors, %d instances checked",
			len(own.Violations), len(injected), own.InstancesChecked)
	}

	st := config.NewStore()
	n, err := driver.LoadInto(st, "xml", RenderXML(bad.Store), "corpus.xml", "")
	if err != nil {
		t.Fatal(err)
	}
	if n != bad.Store.Len() {
		t.Errorf("rendered %d instances, parsed back %d", bad.Store.Len(), n)
	}
	rep := engine.New(st).Run(prog)
	if len(rep.SpecErrors) > 0 {
		t.Fatalf("spec errors: %v", rep.SpecErrors)
	}
	if rep.InstancesChecked == 0 || rep.InstancesChecked != own.InstancesChecked {
		t.Errorf("payload checks %d instances, the generator's store %d", rep.InstancesChecked, own.InstancesChecked)
	}
	blame := func(rep *report.Report) []string {
		out := make([]string, len(rep.Violations))
		for i, v := range rep.Violations {
			key, err := config.ParseKey(v.Key)
			if err != nil {
				t.Fatalf("violation key %q: %v", v.Key, err)
			}
			out[i] = v.Spec + "\x00" + key.ClassPath() + "\x00" + v.Value
		}
		sort.Strings(out)
		return out
	}
	if got, want := blame(rep), blame(own); !reflect.DeepEqual(got, want) {
		t.Errorf("payload reports %d violations, the generator's store %d, or they differ by (spec, class, value)", len(got), len(want))
	}
}
