package confvalley

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/driver"
)

func TestSessionQuickstartFlow(t *testing.T) {
	s := NewSession()
	n, err := s.LoadData("ini", []byte("timeout = 30\nretries = 3"), "app.ini", "App")
	if err != nil || n != 2 {
		t.Fatalf("LoadData = %d, %v", n, err)
	}
	rep, err := s.Validate("$App.timeout -> int & [1, 60]\n$App.retries -> int & [0, 5]")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	rep, err = s.Validate("$App.timeout -> [40, 60]")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestSessionLoadCommandFromRegisteredSource(t *testing.T) {
	s := NewSession()
	s.RegisterSource("cloudsettings", []byte("Fabric.Timeout = 30"))
	rep, err := s.Validate("load 'kv' 'cloudsettings'\n$Fabric.Timeout -> int")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

// A registered source is the session's own copy: with graceful loading the
// instances point into the bytes the load was handed, which must not be
// the slice the caller still holds.
func TestRegisterSourceCopiesItsData(t *testing.T) {
	s := NewSession()
	s.Degrade = true
	data := []byte("Fabric.Timeout = 30")
	s.RegisterSource("cloudsettings", data)
	prog, err := s.Compile("load 'kv' 'cloudsettings'\n$Fabric.Timeout -> int & [1, 60]")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		s.SwapStore(NewStore())
		rep, err := s.ValidateProgram(prog)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Passed() || rep.InstancesChecked != 1 {
			t.Errorf("round %d: %d instances checked, violations = %v", round, rep.InstancesChecked, rep.Violations)
		}
		copy(data, "Fabric.Timeout = 99") // the caller reuses its buffer
	}
}

func TestSessionLoadFileAndFormats(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "conf.yaml")
	if err := os.WriteFile(path, []byte("svc:\n  port: 8080\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	n, err := s.LoadFile("", path, "")
	if err != nil || n != 1 {
		t.Fatalf("LoadFile = %d, %v", n, err)
	}
	rep, err := s.Validate("$svc.port -> port")
	if err != nil || !rep.Passed() {
		t.Errorf("rep = %+v, err = %v", rep, err)
	}
	if _, err := s.LoadFile("", filepath.Join(dir, "missing.ini"), ""); err == nil {
		t.Error("missing file should error")
	}
}

func TestFormatFromPath(t *testing.T) {
	cases := map[string]string{
		"a.xml": "xml", "b.ini": "ini", "c.conf": "ini", "d.json": "json",
		"e.yaml": "yaml", "f.yml": "yaml", "g.csv": "csv", "h.properties": "kv",
	}
	for path, want := range cases {
		if got := FormatFromPath(path); got != want {
			t.Errorf("FormatFromPath(%q) = %q, want %q", path, got, want)
		}
	}
}

func TestSessionIncludes(t *testing.T) {
	s := NewSession()
	s.RegisterInclude("types.cpl", "$App.timeout -> int")
	if _, err := s.LoadData("ini", []byte("timeout = x"), "a.ini", "App"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Validate("include 'types.cpl'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
	// Includes also resolve from SpecDir on disk.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "disk.cpl"), []byte("$App.timeout -> bool"), 0o644); err != nil {
		t.Fatal(err)
	}
	s.SpecDir = dir
	rep, err = s.Validate("include 'disk.cpl'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
	if _, err := s.Validate("include 'gone.cpl'"); err == nil {
		t.Error("unresolvable include should error")
	}
}

func TestSessionCheck(t *testing.T) {
	s := NewSession()
	if _, err := s.LoadData("kv", []byte("A = 5"), "kv", ""); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Check("$A -> int & [0, 9]")
	if err != nil || !rep.Passed() {
		t.Errorf("check failed: %v, %v", rep, err)
	}
	if _, err := s.Check("load 'kv' 'x'"); err == nil {
		t.Error("Check must reject load commands")
	}
	if _, err := s.Check("$A -> ~~~"); err == nil {
		t.Error("Check must surface parse errors")
	}
}

func TestSessionInference(t *testing.T) {
	s := NewSession()
	var b strings.Builder
	for i := 0; i < 30; i++ {
		b.WriteString("Node")
		b.WriteByte(byte('a' + i%3))
		b.WriteString(".Port = 80")
		b.WriteString(strings.Repeat("0", 1+i%2))
		b.WriteByte('\n')
	}
	if _, err := s.LoadData("kv", []byte(b.String()), "ports.kv", ""); err != nil {
		t.Fatal(err)
	}
	res := s.Infer(DefaultInferenceOptions())
	if res.ClassesAnalyzed == 0 || len(res.Constraints) == 0 {
		t.Errorf("inference found nothing: %+v", res)
	}
	cpl := s.InferCPL()
	if !strings.Contains(cpl, "->") {
		t.Errorf("generated CPL looks wrong:\n%s", cpl)
	}
}

func TestSessionInstancesAndEnv(t *testing.T) {
	s := NewSession()
	if _, err := s.LoadData("kv", []byte("Fabric.Path = /opt/app"), "k", ""); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Instances("Fabric.Path")
	if err != nil || len(ins) != 1 {
		t.Fatalf("Instances = %v, %v", ins, err)
	}
	if _, err := s.Instances(""); err == nil {
		t.Error("bad notation should error")
	}
	env := NewSimEnv()
	env.AddPath("/opt/app")
	s.SetEnv(env)
	rep, err := s.Validate("$Fabric.Path -> path & exists")
	if err != nil || !rep.Passed() {
		t.Errorf("exists failed: %v, %v", rep, err)
	}
	if s.Env() != Env(env) {
		t.Error("Env accessor mismatch")
	}
}

func TestSessionParallelAndRender(t *testing.T) {
	s := NewSession()
	for i := 0; i < 20; i++ {
		key := "Cluster" + string(rune('a'+i%5)) + ".Timeout"
		if _, err := s.LoadData("kv", []byte(key+" = x"), "k", ""); err != nil {
			t.Fatal(err)
		}
	}
	s.Parallel = 4
	rep, err := s.Validate("$Timeout -> int")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Error("expected violations")
	}
	var buf bytes.Buffer
	if err := RenderReport(rep, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "violation") {
		t.Errorf("render output: %s", buf.String())
	}
}

func TestHostEnvAccessor(t *testing.T) {
	env := HostEnv()
	if env.OSName() == "" {
		t.Error("host env OS empty")
	}
}

func TestSessionLoadCommandFromDiskAndRest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fabric.ini")
	if err := os.WriteFile(path, []byte("Timeout = 30"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	rep, err := s.Validate("load 'ini' '" + path + "' as Fabric\n$Fabric.Timeout -> int")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	// A load command naming a missing file surfaces the error.
	if _, err := s.Validate("load 'ini' '/no/such/file.ini'"); err == nil {
		t.Error("missing load target should error")
	}
	// REST loads resolve through the simulated endpoint registry.
	driver.RegisterEndpoint("cfg.example.net:443", []byte(`{"Directory": {"Mode": "active"}}`))
	s2 := NewSession()
	rep, err = s2.Validate("load 'rest' 'cfg.example.net:443'\n$Directory.Mode -> == 'active'")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

// panicDriver is a plug-in driver that panics on every parse. The
// registry is process-wide, so it is registered once however many times
// the test runs.
type panicDriver struct{}

var registerPanicDriver sync.Once

func (panicDriver) Name() string { return "panicky" }

func (panicDriver) Parse([]byte, string) ([]*config.Instance, error) { panic("boom") }

// TestStrictLoadContainsDriverPanic: a driver that panics fails a strict
// load command with an error, as it quarantines the source under Degrade,
// instead of crashing the caller.
func TestStrictLoadContainsDriverPanic(t *testing.T) {
	registerPanicDriver.Do(func() { driver.Register(panicDriver{}) })
	s := NewSession()
	s.RegisterSource("x", []byte("a = 1"))
	_, err := s.Validate("load 'panicky' 'x'")
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("Validate = %v, want the driver's panic as an error", err)
	}
}
