package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSplitDataArg(t *testing.T) {
	cases := []struct {
		in                  string
		format, path, scope string
		ok                  bool
	}{
		{"xml:/etc/settings.xml", "xml", "/etc/settings.xml", "", true},
		{"ini:/etc/app.ini:Fabric", "ini", "/etc/app.ini", "Fabric", true},
		{"kv:rel/path.kv", "kv", "rel/path.kv", "", true},
		{`xml:C:\conf\a.xml`, "xml", `C:\conf\a.xml`, "", true},               // drive colon is not a scope
		{"json:/a/b.json:Scope.Sub", "json", "/a/b.json:Scope.Sub", "", true}, // dotted tail looks like a path
		{"nocolon", "", "", "", false},
		{":path", "", "", "", false},
	}
	for _, c := range cases {
		format, path, scope, err := splitDataArg(c.in)
		if c.ok != (err == nil) {
			t.Errorf("splitDataArg(%q) err = %v", c.in, err)
			continue
		}
		if !c.ok {
			continue
		}
		if format != c.format || path != c.path || scope != c.scope {
			t.Errorf("splitDataArg(%q) = %q,%q,%q; want %q,%q,%q",
				c.in, format, path, scope, c.format, c.path, c.scope)
		}
	}
}

func writeTestFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// -lint rejects a spec with error-severity findings (exit 2) and prints
// the diagnostics before the failure line.
func TestLintFlagRejectsContradiction(t *testing.T) {
	dir := t.TempDir()
	spec := writeTestFile(t, dir, "bad.cpl", "$app.timeout -> [10, 5]\n")
	data := writeTestFile(t, dir, "conf.kv", "app.timeout = 30\n")
	var out, errOut bytes.Buffer
	code := run([]string{"-lint", "-spec", spec, "-data", "kv:" + data}, &out, &errOut)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "CV101") || !strings.Contains(errOut.String(), "failed lint") {
		t.Errorf("stderr missing diagnostics:\n%s", errOut.String())
	}
}

// Advisory (sub-error) findings print to stderr but validation proceeds.
func TestLintFlagAdvisory(t *testing.T) {
	dir := t.TempDir()
	spec := writeTestFile(t, dir, "warn.cpl", "let Unused := int\n$app.timeout -> int\n")
	data := writeTestFile(t, dir, "conf.kv", "app.timeout = 30\n")
	var out, errOut bytes.Buffer
	code := run([]string{"-lint", "-spec", spec, "-data", "kv:" + data}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "CV401") {
		t.Errorf("advisory diagnostic not printed:\n%s", errOut.String())
	}
}

// -lint resolves includes as the compile does: an absolute include path
// is read as it is, not under the spec's directory.
func TestLintFlagAbsoluteInclude(t *testing.T) {
	dir := t.TempDir()
	common := writeTestFile(t, t.TempDir(), "common.cpl", "$app.timeout -> int & [1, 60]\n")
	spec := writeTestFile(t, dir, "main.cpl", "include '"+common+"'\n")
	data := writeTestFile(t, dir, "conf.kv", "app.timeout = 30\n")
	for _, args := range [][]string{
		{"-spec", spec, "-data", "kv:" + data},
		{"-lint", "-spec", spec, "-data", "kv:" + data},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 0 {
			t.Errorf("%v: exit = %d, want 0\nstderr:\n%s", args, code, errOut.String())
		}
	}
}

// Without -lint, the same spec validates with no lint output at all.
func TestNoLintByDefault(t *testing.T) {
	dir := t.TempDir()
	spec := writeTestFile(t, dir, "warn.cpl", "let Unused := int\n$app.timeout -> int\n")
	data := writeTestFile(t, dir, "conf.kv", "app.timeout = 30\n")
	var out, errOut bytes.Buffer
	code := run([]string{"-spec", spec, "-data", "kv:" + data}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit = %d\nstderr:\n%s", code, errOut.String())
	}
	if strings.Contains(errOut.String(), "CV401") {
		t.Errorf("lint ran without -lint:\n%s", errOut.String())
	}
}
