package main

import (
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// padTo fills src with newlines to exactly n bytes.
func padTo(src string, n int) string { return src + strings.Repeat("\n", n-len(src)) }

// A spec nested past the parser's bound is a compile error, exit 2, never
// a crash: the 1 MiB a service accepts, nested by parentheses and by a
// flat chain of alternatives, within a second, and 3 million nested
// parentheses (6 MB), most of whose time is lexing, within five. The
// stack is capped at 64 MB, which a front end that recursed once per
// level would overflow, killing the test process.
func TestDeepSpecIsACompileError(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	r := strings.Repeat
	const mib = 1 << 20
	cases := []struct {
		name   string
		src    string
		within time.Duration
	}{
		{"1 MiB of parentheses", padTo("$a.b -> "+r("(", mib/2-6)+"int"+r(")", mib/2-6), mib), time.Second},
		{"1 MiB of alternatives", padTo("$a.b -> int"+r("|int", mib/4-3), mib), time.Second},
		{"3M parentheses", "$a.b -> " + r("(", 3_000_000) + "int" + r(")", 3_000_000), 5 * time.Second},
	}
	for _, c := range cases {
		if raceEnabled && len(c.src) > mib {
			continue // the race detector multiplies the 6 MB lex's time and memory and races nothing here
		}
		dir := writeFiles(t, map[string]string{"s.cpl": c.src, "d.kv": "a.b = 1\n"})
		start := time.Now()
		code, _, stderr := runCvcheck(t, "-spec", filepath.Join(dir, "s.cpl"), "-data", "kv:"+filepath.Join(dir, "d.kv"))
		took := time.Since(start)
		t.Logf("%s: refused in %v", c.name, took)
		if code != 2 || !strings.Contains(stderr, "nests deeper than 10000 levels") {
			t.Errorf("%s: exit %d, stderr %q; want 2 and the nesting error", c.name, code, stderr)
		}
		if took > c.within && !raceEnabled {
			t.Errorf("%s: refused in %v, want within %v", c.name, took, c.within)
		}
	}
}
