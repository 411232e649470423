package vtype

import (
	"strings"
	"testing"
)

var classifySamples = []string{
	"5", "5.0", "05", "7", "-3", "0", "3.14",
	"10.0.0.1", "10.0.0.99", "10.0.0.99x", "::1",
	"v1.2.3", "1.2.10", "2.0",
	"4KB", "4096", "1GB", "100MB",
	"30s", "5m", "1h30m", "250ms",
	"alpha", "Beta", "", "  ", "id-1",
	"550e8400-e29b-41d4-a716-446655440000",
}

// Classified.Compare must agree with CompareValues(a, b) — same order,
// same typed flag — for every sample pair.
func TestClassifiedCompareMatchesCompareValues(t *testing.T) {
	for _, b := range classifySamples {
		cb := Classify(b)
		for _, a := range classifySamples {
			wantC, wantTyped := CompareValues(a, b)
			gotC, gotTyped := cb.Compare(a)
			if wantTyped != gotTyped || sign(wantC) != sign(gotC) {
				t.Errorf("Compare(%q, %q): CompareValues = (%d, %v), Classified = (%d, %v)",
					a, b, wantC, wantTyped, gotC, gotTyped)
			}
		}
		wantStr := Detect(b).IsString() && strings.TrimSpace(b) != ""
		if cb.Stringish != wantStr {
			t.Errorf("Classify(%q).Stringish = %v, want %v", b, cb.Stringish, wantStr)
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// Typing a value allocates nothing, whether or not it is a member of the
// type: a non-number reaches no strconv error, an address becomes no
// net.IP, and no value is lowered or split into a fresh slice. The values
// are the samples, plain words and FuzzVtype's ASCII seeds but "1e400":
// strconv's range error is the one error left, and a non-ASCII value that
// lowering changes is copied before its letters are compared.
func TestTypingDoesNotAllocate(t *testing.T) {
	vals := append(append([]string(nil), classifySamples...),
		"alpha", "Beta", "10.0.0.99x", "id-1", "not a number")
	for _, s := range vtypeSeeds {
		if s != "1e400" && foldable(s) == s {
			vals = append(vals, s)
		}
	}
	var types []Type
	for k := KindBool; k <= KindString; k++ {
		types = append(types, Scalar(k), ListOf(k))
	}
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(20, f); n != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, n)
		}
	}
	for _, a := range vals {
		check("Detect("+a+")", func() { Detect(a) })
		check("Conforms("+a+")", func() {
			for _, typ := range types {
				Conforms(a, typ)
			}
		})
		for _, b := range vals {
			check("CompareValues("+a+", "+b+")", func() { CompareValues(a, b) })
			check("Classify("+b+").Compare("+a+")", func() {
				c := Classify(b)
				c.Compare(a)
			})
		}
	}
}
