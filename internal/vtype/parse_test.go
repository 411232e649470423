package vtype

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
)

func TestParseInt(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"42", 42, true},
		{"-17", -17, true},
		{"+9", 9, true},
		{"0x10", 16, true},
		{"0XFF", 255, true},
		{"-0x2", -2, true},
		{"", 0, false},
		{"1.5", 0, false},
		{"abc", 0, false},
		{"0x", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseInt(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseInt(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestParseFloatRejectsSpecials(t *testing.T) {
	for _, s := range []string{"inf", "-Inf", "NaN", "0x1p3", ""} {
		if _, ok := ParseFloat(s); ok {
			t.Errorf("ParseFloat(%q) should fail", s)
		}
	}
}

func TestIPRange(t *testing.T) {
	lo, hi, ok := ParseIPRange("10.0.0.1-10.0.0.9")
	if !ok || lo.String() != "10.0.0.1" || hi.String() != "10.0.0.9" {
		t.Fatalf("ParseIPRange = %v %v %v", lo, hi, ok)
	}
	if IsIPRange("10.0.0.9-10.0.0.1") {
		t.Error("reversed range should be invalid")
	}
	if IsIPRange("10.0.0.1-") || IsIPRange("-10.0.0.1") || IsIPRange("10.0.0.1") {
		t.Error("malformed ranges should be invalid")
	}
}

func TestCompareIP(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"10.0.0.1", "10.0.0.2", -1},
		{"10.0.0.2", "10.0.0.1", 1},
		{"10.0.0.1", "10.0.0.1", 0},
		{"9.255.255.255", "10.0.0.0", -1},
		{"10.0.0.1", "fe80::1", -1}, // v4 before v6
		{"fe80::1", "fe80::2", -1},
	}
	for _, c := range cases {
		a, b := net.ParseIP(c.a), net.ParseIP(c.b)
		if got := CompareIP(a, b); got != c.want {
			t.Errorf("CompareIP(%s, %s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIPInCIDR(t *testing.T) {
	if !IPInCIDR("10.53.129.7", "10.53.129.0/24") {
		t.Error("address should be inside block")
	}
	if IPInCIDR("10.53.130.7", "10.53.129.0/24") {
		t.Error("address should be outside block")
	}
	if IPInCIDR("garbage", "10.0.0.0/8") || IPInCIDR("10.0.0.1", "garbage") {
		t.Error("malformed inputs should be false")
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"1KB", 1024, true},
		{"2mb", 2 << 20, true},
		{"1.5GB", int64(1.5 * (1 << 30)), true},
		{"512b", 512, true},
		{"3TB", 3 << 40, true},
		{"GB", 0, false},
		{"-1KB", 0, false},
		{"12", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseSize(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseSize(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestParseDuration(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"100ms", 100, true},
		{"30s", 30000, true},
		{"5min", 300000, true},
		{"2h", 7200000, true},
		{"1d", 86400000, true},
		{"10sec", 10000, true},
		{"s", 0, false},
		{"10", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseDuration(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ParseDuration(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestSplitList(t *testing.T) {
	got := SplitList("a; b ;c")
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SplitList semicolons = %q", got)
	}
	got = SplitList("x, y")
	if len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("SplitList commas = %q", got)
	}
	got = SplitList(" solo ")
	if len(got) != 1 || got[0] != "solo" {
		t.Errorf("SplitList solo = %q", got)
	}
}

func TestCompareValues(t *testing.T) {
	cases := []struct {
		a, b  string
		want  int
		typed bool
	}{
		{"2", "10", -1, true},
		{"3.5", "3.5", 0, true},
		{"10.0.0.2", "10.0.0.10", -1, true},
		{"1.2.3", "1.10.0", -1, true},
		{"v2.0", "2.0", 0, true},
		{"1KB", "1MB", -1, true},
		{"30s", "1min", -1, true},
		{"apple", "banana", -1, false},
	}
	for _, c := range cases {
		got, typed := CompareValues(c.a, c.b)
		if got != c.want || typed != c.typed {
			t.Errorf("CompareValues(%q, %q) = %d,%v want %d,%v", c.a, c.b, got, typed, c.want, c.typed)
		}
	}
}

// Property: every generated integer detects as int or port and conforms to
// float (int <= float).
func TestPropIntsConform(t *testing.T) {
	f := func(v int64) bool {
		s := fmt.Sprintf("%d", v)
		typ := Detect(s)
		if typ != Scalar(KindInt) && typ != Scalar(KindPort) {
			return false
		}
		return Conforms(s, Scalar(KindInt)) && Conforms(s, Scalar(KindFloat))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Detect's result always admits the value (Conforms(v, Detect(v))).
func TestPropDetectConformsItself(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gens := []func() string{
		func() string { return fmt.Sprintf("%d", rng.Intn(100000)-50000) },
		func() string { return fmt.Sprintf("%d.%d", rng.Intn(100), rng.Intn(100)) },
		func() string { return fmt.Sprintf("10.%d.%d.%d", rng.Intn(256), rng.Intn(256), rng.Intn(256)) },
		func() string {
			return fmt.Sprintf("10.0.0.%d-10.0.1.%d", rng.Intn(200), rng.Intn(200))
		},
		func() string { return fmt.Sprintf("10.%d.0.0/16", rng.Intn(256)) },
		func() string { return []string{"true", "false", "yes", "no"}[rng.Intn(4)] },
		func() string { return fmt.Sprintf("host%d.dc%d.example.com", rng.Intn(100), rng.Intn(10)) },
		func() string { return fmt.Sprintf("%d,%d,%d", rng.Intn(1000), rng.Intn(1000), rng.Intn(1000)) },
		func() string { return fmt.Sprintf("%dMB", rng.Intn(4096)+1) },
		func() string { return fmt.Sprintf("%ds", rng.Intn(3600)) },
	}
	for i := 0; i < 2000; i++ {
		s := gens[rng.Intn(len(gens))]()
		typ := Detect(s)
		if !Conforms(s, typ) {
			t.Fatalf("value %q detects as %v but does not conform to it", s, typ)
		}
	}
}

// Property: Join is commutative, idempotent, and an upper bound.
func TestPropJoinLattice(t *testing.T) {
	kinds := []Kind{KindBool, KindInt, KindFloat, KindPort, KindIP, KindCIDR,
		KindHostname, KindString, KindPath, KindGUID}
	types := make([]Type, 0, len(kinds)*2)
	for _, k := range kinds {
		types = append(types, Scalar(k))
		if k != KindString {
			types = append(types, ListOf(k))
		}
	}
	for _, a := range types {
		if Join(a, a) != a {
			t.Errorf("Join(%v,%v) not idempotent: %v", a, a, Join(a, a))
		}
		for _, b := range types {
			j1, j2 := Join(a, b), Join(b, a)
			if j1 != j2 {
				t.Errorf("Join(%v,%v)=%v but Join(%v,%v)=%v", a, b, j1, b, a, j2)
			}
			if !LE(a, j1) || !LE(b, j1) {
				t.Errorf("Join(%v,%v)=%v is not an upper bound", a, b, j1)
			}
		}
	}
}

// Sizes and durations take ParseFloat's numeric grammar: a "nan" or "inf"
// number with a unit suffix is not a size or a duration, so it can
// neither conform to those types nor order against their values.
func TestSizeAndDurationRejectNonFinite(t *testing.T) {
	for _, s := range []string{"nans", "NaNs", "infs", "-infms", "+Infmin", "infinityh", "nanMB", "InfKB", "0x1p4s", "0x10MB"} {
		if _, ok := ParseDuration(s); ok {
			t.Errorf("ParseDuration(%q) should fail", s)
		}
		if _, ok := ParseSize(s); ok {
			t.Errorf("ParseSize(%q) should fail", s)
		}
		if Conforms(s, Scalar(KindDuration)) || Conforms(s, Scalar(KindSize)) {
			t.Errorf("%q should conform to neither duration nor size", s)
		}
	}
	if c, typed := CompareValues("nans", "5s"); typed {
		t.Errorf(`CompareValues("nans", "5s") = %d, typed; want an untyped string order`, c)
	}
}

// A size past the int64 byte range is not a size: it used to convert to
// MinInt64 and order below "1B".
func TestParseSizeRejectsOverflow(t *testing.T) {
	for _, s := range []string{"99999999TB", "8388608TB", "1e30B", "9223372036854775808B"} {
		if v, ok := ParseSize(s); ok {
			t.Errorf("ParseSize(%q) = %d, ok; want a failure", s, v)
		}
	}
	if v, ok := ParseSize("8388607TB"); !ok || v != 8388607<<40 {
		t.Errorf(`ParseSize("8388607TB") = %d,%v; want %d,true`, v, ok, int64(8388607)<<40)
	}
	if c, typed := CompareValues("99999999TB", "1B"); typed && c < 0 {
		t.Errorf(`CompareValues("99999999TB", "1B") = %d, typed; an overflowing size must not order below 1B`, c)
	}
}
