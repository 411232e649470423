package report

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// wireFixture is a report exercising every wire field with fixed values.
func wireFixture() *Report {
	r := &Report{
		SpecsRun:         5,
		SpecsFailed:      2,
		SpecsReused:      1,
		InstancesChecked: 42,
		Duration:         1234567 * time.Nanosecond,
		Stopped:          true,
		Interrupted:      true,
	}
	r.Add(Violation{
		Seq: 0, SpecID: 3, Spec: "$App.Timeout -> int & [1, 60]",
		Key: "App.Timeout", Value: "400", Source: "app.ini",
		Message: "value 400 is outside [1, 60]", Severity: Error,
	})
	r.Add(Violation{
		Seq: 1, SpecID: 7, Spec: "$Db.Host -> hostname",
		Key: "Db.Host", Value: "not a host", Source: "db.json",
		Message: "not a hostname", Severity: Critical,
	})
	r.AddSpecError("spec 4: unknown predicate frobnicate")
	return r
}

// TestWireGolden locks the wire format: any change to field names,
// ordering, or representation shows up as a diff against the checked-in
// golden file and forces a deliberate SchemaVersion decision.
func TestWireGolden(t *testing.T) {
	got, err := wireFixture().EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "wire_v1.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, bytes.TrimSuffix(want, []byte("\n"))) {
		t.Errorf("wire encoding drifted from golden file.\n got: %s\nwant: %s", got, want)
	}
}

func TestWireRoundTrip(t *testing.T) {
	r := wireFixture()
	b, err := r.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	w, err := DecodeWire(b)
	if err != nil {
		t.Fatal(err)
	}
	if w.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", w.SchemaVersion, SchemaVersion)
	}
	back := w.Report()
	// The reconstructed report re-encodes identically: nothing the wire
	// carries is lost in the round trip.
	b2, err := back.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Errorf("round trip drifted:\n first: %s\nsecond: %s", b, b2)
	}
	if back.Passed() {
		t.Error("reconstructed report with violations reports Passed")
	}
}

// An empty report still carries a non-null violations array — consumers
// may index it unconditionally.
func TestWireEmptyReportShape(t *testing.T) {
	b, err := (&Report{SpecsRun: 1}).EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	v, ok := m["violations"]
	if !ok || v == nil {
		t.Errorf("violations missing or null in %s", b)
	}
	if !m["passed"].(bool) {
		t.Errorf("clean report not marked passed in %s", b)
	}
}

func TestDecodeWireRejectsUnknownVersions(t *testing.T) {
	if _, err := DecodeWire([]byte(`{"specs_run": 1}`)); err == nil {
		t.Error("missing schema_version accepted")
	}
	if _, err := DecodeWire([]byte(`{"schema_version": 999}`)); err == nil {
		t.Error("future schema_version accepted")
	}
	if _, err := DecodeWire([]byte(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestWireSeverityNames(t *testing.T) {
	r := &Report{}
	for _, sev := range []Severity{Info, Warning, Error, Critical} {
		r.Violations = nil
		r.Add(Violation{Severity: sev})
		w := r.Wire()
		if w.Violations[0].Severity != sev.String() {
			t.Errorf("severity %v encoded as %q", sev, w.Violations[0].Severity)
		}
		got, err := ParseSeverity(w.Violations[0].Severity)
		if err != nil || got != sev {
			t.Errorf("severity %v does not round-trip: %v, %v", sev, got, err)
		}
	}
}
