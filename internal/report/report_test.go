package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestSeverityRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error, Critical} {
		got, err := ParseSeverity(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: %v, %v", s, got, err)
		}
	}
	if _, err := ParseSeverity("fatal"); err == nil {
		t.Error("unknown severity should error")
	}
}

// Assembling two partition reports sums their sections' counters and
// keeps either one's Stopped flag.
func TestMerge(t *testing.T) {
	a := &Report{SpecsRun: 1, SpecsFailed: 1, InstancesChecked: 10}
	a.Add(Violation{Seq: 0, SpecID: 1, Message: "m1"})
	a.CloseSection(0, SpecOutcome{Instances: 10, Failed: true})
	b := &Report{SpecsRun: 2, InstancesChecked: 20, Stopped: true}
	b.CloseSection(1, SpecOutcome{Instances: 5})
	b.Add(Violation{Seq: 2, SpecID: 2, Message: "m2"})
	b.CloseSection(2, SpecOutcome{Instances: 15, Failed: true})
	m := Assemble(a, b)
	if m.SpecsRun != 3 || m.SpecsFailed != 2 || m.InstancesChecked != 30 || len(m.Violations) != 2 {
		t.Errorf("merged = %+v", m)
	}
	if !m.Stopped {
		t.Error("stopped should propagate")
	}
}

func TestGroupByConstraintOrdersBySize(t *testing.T) {
	r := &Report{}
	r.Add(Violation{SpecID: 1, Spec: "$A -> int", Key: "A[1]"})
	r.Add(Violation{SpecID: 2, Spec: "$B -> bool", Key: "B[1]"})
	r.Add(Violation{SpecID: 2, Spec: "$B -> bool", Key: "B[2]"})
	groups := r.GroupByConstraint()
	if len(groups) != 2 || groups[0].SpecID != 2 || len(groups[0].Violations) != 2 {
		t.Errorf("groups = %+v", groups)
	}
}

func TestRenderAndJSON(t *testing.T) {
	r := &Report{SpecsRun: 1, SpecsFailed: 1, InstancesChecked: 2}
	r.Add(Violation{SpecID: 1, Spec: "$A -> int", Key: "A[1]", Value: "x", Message: "value \"x\" is not a valid int", Severity: Error})
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"1 violation(s)", "$A -> int", "A[1]"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Violations) != 1 || back.Violations[0].Key != "A[1]" {
		t.Errorf("json round trip = %+v", back)
	}
}

func TestPassed(t *testing.T) {
	r := &Report{}
	if !r.Passed() {
		t.Error("empty report should pass")
	}
	r.SpecErrors = append(r.SpecErrors, "boom")
	if r.Passed() {
		t.Error("spec errors should fail the report")
	}
	r2 := &Report{}
	r2.Add(Violation{})
	if r2.Passed() {
		t.Error("violations should fail the report")
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Severity: Warning, Key: "K", Value: "v", Message: "bad", Spec: "$K -> int"}
	s := v.String()
	if !strings.Contains(s, "warning") || !strings.Contains(s, "$K -> int") {
		t.Errorf("String = %q", s)
	}
}
