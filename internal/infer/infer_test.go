package infer

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/engine"
)

// addClass populates n instances of one class with generated values.
func addClass(st *config.Store, class string, n int, gen func(i int) string) {
	segs := strings.Split(class, ".")
	for i := 0; i < n; i++ {
		key := config.Key{}
		for j, s := range segs {
			seg := config.Seg{Name: s}
			if j < len(segs)-1 {
				seg.Inst = fmt.Sprintf("i%d", i)
			}
			key.Segs = append(key.Segs, seg)
		}
		st.Add(&config.Instance{Key: key, Value: gen(i), Source: "gen"})
	}
}

func kinds(cs []Constraint) map[Kind]bool {
	out := make(map[Kind]bool)
	for _, c := range cs {
		out[c.Kind] = true
	}
	return out
}

func TestInferIntRangeUnique(t *testing.T) {
	st := config.NewStore()
	addClass(st, "Node.Port", 50, func(i int) string { return fmt.Sprintf("%d", 8000+i) })
	res := Infer(st, Defaults())
	ks := kinds(res.PerClass["Node.Port"])
	if !ks[KindType] || !ks[KindNonempty] || !ks[KindRange] || !ks[KindUniqueness] {
		t.Errorf("constraints = %+v", res.PerClass["Node.Port"])
	}
	var rangeC Constraint
	for _, c := range res.PerClass["Node.Port"] {
		if c.Kind == KindRange {
			rangeC = c
		}
		if c.Kind == KindType && c.CPL != "port" {
			t.Errorf("type = %s, want port", c.CPL)
		}
	}
	if rangeC.CPL != "[8000, 8049]" {
		t.Errorf("range = %q", rangeC.CPL)
	}
}

func TestInferConsistency(t *testing.T) {
	st := config.NewStore()
	addClass(st, "Cluster.OSPath", 30, func(int) string { return `\\share\OS\v2` })
	res := Infer(st, Defaults())
	ks := kinds(res.PerClass["Cluster.OSPath"])
	if !ks[KindConsistency] || !ks[KindType] {
		t.Errorf("constraints = %+v", res.PerClass["Cluster.OSPath"])
	}
	if ks[KindUniqueness] {
		t.Error("constant class must not be unique")
	}
}

func TestInferEnum(t *testing.T) {
	st := config.NewStore()
	// ln(60) ≈ 4.09 ≥ 3 distinct values.
	addClass(st, "Tenant.Type", 60, func(i int) string {
		return []string{"compute", "storage", "network"}[i%3]
	})
	res := Infer(st, Defaults())
	ks := kinds(res.PerClass["Tenant.Type"])
	if !ks[KindEnum] {
		t.Errorf("constraints = %+v", res.PerClass["Tenant.Type"])
	}
	// Too many distinct values for the sample size: no enum.
	st2 := config.NewStore()
	addClass(st2, "T.K", 20, func(i int) string { // ln(20) ≈ 3.0 < 5
		return []string{"a1", "b2", "c3", "d4", "e5"}[i%5]
	})
	res2 := Infer(st2, Defaults())
	if kinds(res2.PerClass["T.K"])[KindEnum] {
		t.Error("enum inferred despite ln(n) < |set|")
	}
}

func TestBooleanExclusions(t *testing.T) {
	st := config.NewStore()
	addClass(st, "F.MonitorNodeHealth", 100, func(i int) string {
		if i%2 == 0 {
			return "True"
		}
		return "False"
	})
	res := Infer(st, Defaults())
	ks := kinds(res.PerClass["F.MonitorNodeHealth"])
	if !ks[KindType] {
		t.Error("bool type should be inferred")
	}
	if ks[KindEnum] {
		t.Error("boolean enum is vacuous and must be skipped")
	}
}

func TestTypeOrderingMixedListAndScalar(t *testing.T) {
	// §4.5: some instances are ints, others comma-separated lists of
	// ints → infer list-of-int.
	st := config.NewStore()
	addClass(st, "F.RetryIntervals", 40, func(i int) string {
		if i%4 == 0 {
			return "30"
		}
		return "30,60,120"
	})
	res := Infer(st, Defaults())
	var typeCPL string
	for _, c := range res.PerClass["F.RetryIntervals"] {
		if c.Kind == KindType {
			typeCPL = c.CPL
		}
	}
	if typeCPL != "list(int)" && typeCPL != "list(port)" {
		t.Errorf("type = %q, want list(int)", typeCPL)
	}
}

func TestNoiseToleranceThreshold(t *testing.T) {
	// 10% garbage: type should not be inferred at a 95% threshold.
	st := config.NewStore()
	addClass(st, "F.Mixed", 100, func(i int) string {
		if i%10 == 0 {
			return "not-a-number"
		}
		return fmt.Sprintf("%d", i)
	})
	res := Infer(st, Defaults())
	if kinds(res.PerClass["F.Mixed"])[KindType] {
		t.Error("type inferred despite 10% noise at 95% threshold")
	}
	// Relaxed threshold accepts it.
	opts := Defaults()
	opts.TypeThreshold = 0.85
	res = Infer(st, opts)
	if !kinds(res.PerClass["F.Mixed"])[KindType] {
		t.Error("relaxed threshold should infer the type")
	}
}

func TestEqualityClustering(t *testing.T) {
	st := config.NewStore()
	secret := "3F2504E0-4F89-11D3-9A0C-0305E82C3301"
	addClass(st, "Controller.SecretKey", 25, func(int) string { return secret })
	addClass(st, "Auth.SecretKey", 25, func(int) string { return secret })
	addClass(st, "Web.ApiKey", 25, func(int) string { return secret })
	// Short value: excluded (len < 6).
	addClass(st, "A.Flag", 25, func(int) string { return "abc" })
	addClass(st, "B.Flag", 25, func(int) string { return "abc" })
	// Too few instances: excluded (< 20).
	addClass(st, "C.Key", 5, func(int) string { return secret })
	res := Infer(st, Defaults())
	var eqs []Constraint
	for _, c := range res.Constraints {
		if c.Kind == KindEquality {
			eqs = append(eqs, c)
		}
	}
	if len(eqs) != 2 { // chain over 3 classes
		t.Fatalf("equalities = %+v", eqs)
	}
	for _, c := range eqs {
		if strings.Contains(c.Class, "Flag") || strings.Contains(c.CPL, "C.Key") {
			t.Errorf("excluded class leaked into equality: %+v", c)
		}
	}
}

func TestEmptyValuesBlockNonempty(t *testing.T) {
	st := config.NewStore()
	addClass(st, "F.Desc", 20, func(i int) string {
		if i == 3 {
			return ""
		}
		return fmt.Sprintf("desc %d", i)
	})
	res := Infer(st, Defaults())
	if kinds(res.PerClass["F.Desc"])[KindNonempty] {
		t.Error("nonempty inferred despite empty sample")
	}
}

func TestHistogram(t *testing.T) {
	st := config.NewStore()
	addClass(st, "A.IncidentOwner", 30, func(i int) string {
		if i%5 == 0 {
			return "" // unset for some instances: no constraint inferable
		}
		return fmt.Sprintf("free text %d about owner", i*7%13)
	})
	addClass(st, "A.Port", 30, func(i int) string { return fmt.Sprintf("%d", 8000+i) })
	res := Infer(st, Defaults())
	h := res.Histogram(4)
	total := 0
	for _, n := range h {
		total += n
	}
	if total != res.ClassesAnalyzed {
		t.Errorf("histogram total = %d, classes = %d", total, res.ClassesAnalyzed)
	}
	if h[0] == 0 {
		t.Errorf("free-text class should land in bucket 0: %v", h)
	}
}

func TestGeneratedCPLCompilesAndValidates(t *testing.T) {
	// Round trip: infer on good data, compile the generated CPL, run it
	// back over the same data — the good corpus must pass its own
	// inferred specifications.
	st := config.NewStore()
	addClass(st, "Node.Port", 50, func(i int) string { return fmt.Sprintf("%d", 8000+i) })
	addClass(st, "Cluster.OSPath", 30, func(int) string { return `\\share\OS\v2` })
	addClass(st, "Tenant.Type", 60, func(i int) string { return []string{"compute", "storage"}[i%2] })
	res := Infer(st, Defaults())
	src := res.GenerateCPL()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("generated CPL does not compile: %v\n%s", err, src)
	}
	rep := engine.New(st).Run(prog)
	if !rep.Passed() {
		t.Errorf("good corpus violates its own inferred specs:\n%v\n%v", rep.Violations, rep.SpecErrors)
	}
	// A bad value is caught by the inferred specs.
	st.Add(&config.Instance{Key: config.K("Node::x", "Port"), Value: "not-a-port"})
	rep = engine.New(st).Run(prog)
	if rep.Passed() {
		t.Error("inferred specs should catch the bad value")
	}
}

func TestCountByKindFoldsEnumIntoRange(t *testing.T) {
	st := config.NewStore()
	addClass(st, "Tenant.Type", 60, func(i int) string { return []string{"compute", "storage"}[i%2] })
	res := Infer(st, Defaults())
	counts := res.CountByKind()
	if counts["Enum"] != 0 || counts["Range"] == 0 {
		t.Errorf("counts = %v", counts)
	}
}

// The miner's output on the full-scale Type A corpus, pinned by digest:
// it is byte-identical to what it was while Snapshot.ClassInstances
// rendered every class's display path per lookup. A change to the
// heuristics that moves it must re-record the digest.
func TestTypeAConstraintSetPinned(t *testing.T) {
	res := Infer(azuregen.GenerateA(1.0, 2015).Store, Defaults())
	h := sha256.New()
	for _, c := range res.Constraints {
		fmt.Fprintf(h, "%d\t%s\t%q\t%s\n", c.Kind, c.Class, c.Peers, c.CPL)
	}
	const want = "79810412ab5104c910daf4f66a89d8af54d69f594c4bcaa10961e2954dd126b4"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(res.Constraints) != 2934 || got != want {
		t.Errorf("Type A: %d constraints, digest %s; want 2934, %s", len(res.Constraints), got, want)
	}
}
