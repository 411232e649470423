package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func runCvlint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestCleanFileExitsZero(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "ok.cpl", "$app.timeout -> int\n")
	code, out, _ := runCvlint(t, spec)
	if code != 0 {
		t.Fatalf("exit = %d, output:\n%s", code, out)
	}
	if out != "" {
		t.Errorf("clean run printed %q", out)
	}
}

// Includes resolve as the compile resolves them: a relative path under
// the file's directory, an absolute one as it is.
func TestIncludesResolveLikeCompile(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "rel.cpl", "$app.retries -> int\n")
	abs := writeFile(t, t.TempDir(), "abs.cpl", "$app.timeout -> int\n")
	spec := writeFile(t, dir, "main.cpl", "include 'rel.cpl'\ninclude '"+abs+"'\n")
	code, out, _ := runCvlint(t, spec)
	if code != 0 || out != "" {
		t.Fatalf("exit = %d, output:\n%s", code, out)
	}
}

func TestFindingsExitOne(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "bad.cpl", "$app.timeout -> [10, 5]\n")
	code, out, _ := runCvlint(t, spec)
	if code != 1 {
		t.Fatalf("exit = %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "CV101") || !strings.Contains(out, "bad.cpl:1:17") {
		t.Errorf("output missing positioned code:\n%s", out)
	}
}

func TestFailOnThreshold(t *testing.T) {
	dir := t.TempDir()
	// CV401 (unused macro) is warning severity.
	spec := writeFile(t, dir, "warn.cpl", "let Unused := int\n$app.timeout -> int\n")
	if code, out, _ := runCvlint(t, spec); code != 1 {
		t.Fatalf("default threshold: exit = %d\n%s", code, out)
	}
	if code, out, _ := runCvlint(t, "-fail-on", "error", spec); code != 0 {
		t.Fatalf("-fail-on error: exit = %d\n%s", code, out)
	}
}

func TestUsageErrorsExitTwo(t *testing.T) {
	if code, _, _ := runCvlint(t); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code, _, _ := runCvlint(t, "/nonexistent/x.cpl"); code != 2 {
		t.Errorf("missing file: exit = %d, want 2", code)
	}
	if code, _, _ := runCvlint(t, "-fail-on", "loud", "x.cpl"); code != 2 {
		t.Errorf("bad -fail-on: exit = %d, want 2", code)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "bad.cpl", "$app.timeout -> [10, 5]\n")
	code, out, _ := runCvlint(t, "-json", spec)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
	var w struct {
		SchemaVersion int `json:"schema_version"`
		Errors        int `json:"errors"`
		Results       []struct {
			File        string `json:"file"`
			Diagnostics []struct {
				Code     string `json:"code"`
				Severity string `json:"severity"`
				Line     int    `json:"line"`
			} `json:"diagnostics"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(out), &w); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if w.SchemaVersion != 1 || w.Errors != 1 || len(w.Results) != 1 {
		t.Errorf("wire = %+v", w)
	}
	d := w.Results[0].Diagnostics[0]
	if d.Code != "CV101" || d.Severity != "error" || d.Line != 1 {
		t.Errorf("diagnostic = %+v", d)
	}
}

func TestDirectoryWalkSkipsGoldenFixtures(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, dir, "ok.cpl", "$app.timeout -> int\n")
	// A fixture pair: broken spec + .want golden must be skipped.
	writeFile(t, dir, "fixture.cpl", "$app.timeout -> [10, 5]\n")
	writeFile(t, dir, "fixture.want", "1:17 CV101 ...\n")
	code, out, _ := runCvlint(t, dir)
	if code != 0 {
		t.Fatalf("exit = %d; fixture not skipped?\n%s", code, out)
	}
}

func TestDataSnapshotEnablesDrift(t *testing.T) {
	dir := t.TempDir()
	data := writeFile(t, dir, "conf.yaml", "app:\n  timeout: \"30\"\n")
	spec := writeFile(t, dir, "drift.cpl", "$app.timeout -> int\n$app.timeot -> int\n")
	code, out, _ := runCvlint(t, "-data", "yaml:"+data, spec)
	if code != 1 {
		t.Fatalf("exit = %d\n%s", code, out)
	}
	if !strings.Contains(out, "CV601") || !strings.Contains(out, "app.timeot") {
		t.Errorf("drift diagnostic missing:\n%s", out)
	}
	if strings.Contains(out, "app.timeout matches no instance") {
		t.Errorf("live reference flagged:\n%s", out)
	}
}

func TestAnalyzerSelectionFlags(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "bad.cpl", "$app.timeout -> [10, 5]\n")
	if code, out, _ := runCvlint(t, "-disable", "contradiction", spec); code != 0 {
		t.Fatalf("-disable: exit = %d\n%s", code, out)
	}
	if code, out, _ := runCvlint(t, "-analyzers", "macro", spec); code != 0 {
		t.Fatalf("-analyzers: exit = %d\n%s", code, out)
	}
}

func TestShippedSpecsDirLintsClean(t *testing.T) {
	code, out, errOut := runCvlint(t, "../../specs")
	if code != 0 {
		t.Fatalf("shipped specs dirty: exit = %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
