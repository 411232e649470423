package lint

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/specs"
)

var update = flag.Bool("update", false, "rewrite the lintcorpus golden .want files")

const corpusDir = "../../specs/lintcorpus"

// snapshot loads the openstack.yaml corpus the drift analyzer runs
// against.
func snapshot(t *testing.T) *config.Store {
	t.Helper()
	st := config.NewStore()
	if _, err := driver.LoadInto(st, "yaml", specs.OpenStackConfig(), "openstack.yaml", ""); err != nil {
		t.Fatal(err)
	}
	return st
}

// renderGolden flattens a result to the stable textual form stored in
// the .want files: one diagnostic per line, no file prefix.
func renderGolden(res Result) string {
	var b strings.Builder
	for _, d := range res.Diagnostics {
		fmt.Fprintf(&b, "%d:%d %s %s %s: %s\n", d.Line, d.Col, d.Code, d.Analyzer, d.Severity, d.Message)
		if d.Suggestion != "" {
			fmt.Fprintf(&b, "\tsuggestion: %s\n", d.Suggestion)
		}
	}
	return b.String()
}

// TestGoldenCorpus locks every analyzer's diagnostics over the
// deliberately broken corpus files. Regenerate with:
//
//	go test ./internal/lint -run TestGoldenCorpus -update
func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.cpl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	sort.Strings(files)
	snap := snapshot(t)
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			// Only the drift corpus runs against a snapshot: with one,
			// the corpusdrift analyzer would correctly flag every made-up
			// reference in the other files and drown their goldens.
			opts := Options{}
			if name == "drift.cpl" {
				opts.Snapshot = snap
			}
			res := Run(name, string(src), opts)
			got := renderGolden(res)
			wantFile := strings.TrimSuffix(f, ".cpl") + ".want"
			if *update {
				if err := os.WriteFile(wantFile, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(wantFile)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("diagnostics changed.\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestCorpusCoversAllAnalyzers: every registered analyzer fires at
// least once somewhere in the corpus, so a silently broken analyzer
// cannot hide behind empty goldens.
func TestCorpusCoversAllAnalyzers(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join(corpusDir, "*.cpl"))
	snap := snapshot(t)
	fired := map[string]bool{}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{}
		if filepath.Base(f) == "drift.cpl" {
			opts.Snapshot = snap
		}
		for _, d := range Run(filepath.Base(f), string(src), opts).Diagnostics {
			fired[d.Analyzer] = true
		}
	}
	for _, a := range Analyzers() {
		if !fired[a.Name] {
			t.Errorf("analyzer %q reported nothing across the corpus", a.Name)
		}
	}
	for _, builtin := range []string{"parse", "compile"} {
		if !fired[builtin] {
			t.Errorf("driver pass %q reported nothing across the corpus", builtin)
		}
	}
}

// TestShippedSpecsLintClean is the gate the CI lint job relies on: the
// specification files this repository ships must produce no
// diagnostics against their own corpora.
func TestShippedSpecsLintClean(t *testing.T) {
	osSnap := snapshot(t)
	csSnap := config.NewStore()
	if _, err := driver.LoadInto(csSnap, "json", specs.CloudStackConfig(), "cloudstack.json", ""); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		src  string
		snap *config.Store
	}{
		{"openstack.cpl", specs.OpenStack(), osSnap},
		{"cloudstack.cpl", specs.CloudStack(), csSnap},
		{"azure_type_a.cpl", specs.AzureTypeA(), nil},
		{"azure_type_b.cpl", specs.AzureTypeB(), nil},
		{"azure_type_c.cpl", specs.AzureTypeC(), nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := Run(c.name, c.src, Options{Snapshot: c.snap})
			for _, d := range res.Diagnostics {
				t.Errorf("shipped spec has lint finding: %s", d)
			}
		})
	}
}

// TestSeverityJSONRoundTrip: severities serialize as names and come
// back.
func TestSeverityJSONRoundTrip(t *testing.T) {
	for _, s := range []Severity{Info, Warning, Error} {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Severity
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip %v -> %s -> %v", s, b, back)
		}
	}
	var bad Severity
	if err := json.Unmarshal([]byte(`"loud"`), &bad); err == nil {
		t.Error("unknown severity accepted")
	}
}

// TestMarshalResults: the wire format is schema-stamped and totals add
// up.
func TestMarshalResults(t *testing.T) {
	res := Run("x.cpl", "$app.timeout -> [10, 5]", Options{})
	b, err := MarshalResults([]Result{res})
	if err != nil {
		t.Fatal(err)
	}
	var w struct {
		SchemaVersion int      `json:"schema_version"`
		Results       []Result `json:"results"`
		Errors        int      `json:"errors"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	if w.SchemaVersion != SchemaVersion {
		t.Errorf("schema_version = %d, want %d", w.SchemaVersion, SchemaVersion)
	}
	if w.Errors != 1 || len(w.Results) != 1 {
		t.Errorf("wire = %+v", w)
	}
}

// TestAnalyzerSelection: Options.Analyzers and Options.Disable narrow
// the run.
func TestAnalyzerSelection(t *testing.T) {
	src := "$app.timeout -> [10, 5]"
	if res := Run("x.cpl", src, Options{Analyzers: []string{"macro"}}); len(res.Diagnostics) != 0 {
		t.Errorf("macro-only run still reported %v", res.Diagnostics)
	}
	if res := Run("x.cpl", src, Options{Disable: []string{"contradiction"}}); len(res.Diagnostics) != 0 {
		t.Errorf("disabled analyzer still reported %v", res.Diagnostics)
	}
	if res := Run("x.cpl", src, Options{}); len(res.Diagnostics) != 1 {
		t.Errorf("full run reported %v", res.Diagnostics)
	}
}

// A conjunct repeated n times is reported n-1 times, once per repeat,
// not once per earlier copy: a long chain of one conjunct costs linear
// diagnostics.
func TestRepeatedConjunctReportedOnce(t *testing.T) {
	const n = 300
	res := Run("rep.cpl", "$a.b -> int"+strings.Repeat(" & int", n-1), Options{Analyzers: []string{"deadspec"}})
	if len(res.Diagnostics) != n-1 {
		t.Fatalf("%d diagnostics for %d copies of one conjunct, want %d", len(res.Diagnostics), n, n-1)
	}
	for _, d := range res.Diagnostics {
		if d.Code != "CV303" || !strings.Contains(d.Message, "repeats an earlier conjunct") {
			t.Fatalf("unexpected diagnostic %+v", d)
		}
	}
}
