package confvalley

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// goRun executes a command of this module via the go toolchain and
// returns combined output plus the exit error (nil on success).
func goRun(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCvcheckEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tool tests need the go toolchain")
	}
	dir := t.TempDir()
	data := filepath.Join(dir, "app.ini")
	if err := os.WriteFile(data, []byte("[Frontend]\nport = 8080\ntimeout = 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join(dir, "checks.cpl")
	if err := os.WriteFile(spec, []byte("$Frontend.port -> port\n$Frontend.timeout -> int & [1, 60]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := goRun(t, "./cmd/cvcheck", "-spec", spec, "-data", "ini:"+data)
	if err != nil {
		t.Fatalf("cvcheck failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 violation(s)") {
		t.Errorf("output:\n%s", out)
	}
	// A violating value exits 1 and names the key.
	if err := os.WriteFile(data, []byte("[Frontend]\nport = 99999\ntimeout = 30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = goRun(t, "./cmd/cvcheck", "-spec", spec, "-data", "ini:"+data)
	if err == nil {
		t.Errorf("cvcheck should exit nonzero on violations:\n%s", out)
	}
	if !strings.Contains(out, "Frontend.port") {
		t.Errorf("violation key missing:\n%s", out)
	}
	// JSON mode emits a parseable report.
	out, _ = goRun(t, "./cmd/cvcheck", "-spec", spec, "-data", "ini:"+data, "-json")
	if !strings.Contains(out, `"violations"`) {
		t.Errorf("json output:\n%s", out)
	}
	// Usage errors exit 2.
	if _, err := goRun(t, "./cmd/cvcheck"); err == nil {
		t.Error("missing -spec should fail")
	}
}

func TestCvinferEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tool tests need the go toolchain")
	}
	dir := t.TempDir()
	var b strings.Builder
	for i := 0; i < 30; i++ {
		b.WriteString("Node::n")
		b.WriteString(strings.Repeat("x", i%3+1))
		b.WriteString(".HeartbeatMs = 30\n")
	}
	data := filepath.Join(dir, "snapshot.kv")
	if err := os.WriteFile(data, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	outFile := filepath.Join(dir, "inferred.cpl")
	out, err := goRun(t, "./cmd/cvinfer", "-data", "kv:"+data, "-out", outFile, "-stats")
	if err != nil {
		t.Fatalf("cvinfer failed: %v\n%s", err, out)
	}
	generated, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(generated), "$Node.HeartbeatMs ->") {
		t.Errorf("generated:\n%s", generated)
	}
	// The generated specifications validate the snapshot cleanly.
	out, err = goRun(t, "./cmd/cvcheck", "-spec", outFile, "-data", "kv:"+data)
	if err != nil {
		t.Fatalf("cvcheck of inferred specs failed: %v\n%s", err, out)
	}
}

func TestCvgenEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tool tests need the go toolchain")
	}
	dir := t.TempDir()
	outFile := filepath.Join(dir, "expert.kv")
	out, err := goRun(t, "./cmd/cvgen", "-type", "expert", "-clusters", "6", "-errors", "1", "-out", outFile)
	if err != nil {
		t.Fatalf("cvgen failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "injected") {
		t.Errorf("stderr missing injection note:\n%s", out)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "VipStart") {
		t.Errorf("generated corpus lacks substrate keys:\n%.200s", data)
	}
	// Unknown type exits 2.
	if _, err := goRun(t, "./cmd/cvgen", "-type", "Z"); err == nil {
		t.Error("unknown -type should fail")
	}
}

func TestCvbenchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("tool tests need the go toolchain")
	}
	out, err := goRun(t, "./cmd/cvbench", "-run", "table2,table4", "-scale", "0.02")
	if err != nil {
		t.Fatalf("cvbench failed: %v\n%s", err, out)
	}
	for _, want := range []string{"Table 2", "Table 4", "OpenStack"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := goRun(t, "./cmd/cvbench", "-run", "nosuch"); err == nil {
		t.Error("unknown experiment should fail")
	}
}

// The reference interpreter is an oracle, not part of the product: in
// non-test code only the experiments (the §5.2 discovery ablation) and the
// engine import internal/refeval, and inside the engine only engine.go,
// whose deprecated Interpret option forwards to it.
func TestRefevalImportBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("tool tests need the go toolchain")
	}
	const refeval = "confvalley/internal/refeval"
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	var importers []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if slices.Contains(fields[1:], refeval) {
			importers = append(importers, fields[0])
		}
	}
	if want := []string{"confvalley/internal/engine", "confvalley/internal/experiments"}; !slices.Equal(importers, want) {
		t.Errorf("non-test importers of %s = %v, want %v", refeval, importers, want)
	}
	files, err := filepath.Glob("internal/engine/*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		imports := slices.ContainsFunc(f.Imports, func(s *ast.ImportSpec) bool { return s.Path.Value == strconv.Quote(refeval) })
		if imports != (filepath.Base(name) == "engine.go") {
			t.Errorf("%s imports %s: %t", name, refeval, imports)
		}
	}
}
