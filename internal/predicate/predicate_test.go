package predicate

import (
	"math/rand"
	"reflect"
	"testing"

	"confvalley/internal/simenv"
	"confvalley/internal/value"
	"confvalley/internal/vtype"
)

func vs(raws ...string) []value.V {
	out := make([]value.V, len(raws))
	for i, r := range raws {
		out[i] = value.Scalar(r)
	}
	return out
}

func TestNonempty(t *testing.T) {
	if !Nonempty(value.Scalar("x")) || Nonempty(value.Scalar("")) || Nonempty(value.Scalar("  ")) {
		t.Error("scalar nonempty wrong")
	}
	if !Nonempty(value.ListOf(vs("", "x"))) {
		t.Error("list with one nonempty member is nonempty")
	}
	if Nonempty(value.ListOf(vs("", ""))) || Nonempty(value.ListOf(nil)) {
		t.Error("blank lists are empty")
	}
}

func TestTypeCheck(t *testing.T) {
	if !TypeCheck(vtype.Scalar(vtype.KindInt), value.Scalar("42")) {
		t.Error("int check failed")
	}
	if TypeCheck(vtype.Scalar(vtype.KindInt), value.Scalar("x")) {
		t.Error("int check should fail")
	}
	// Tuple: every member must conform to the scalar kind.
	tup := value.ListOf(vs("10.0.0.1", "10.0.0.2"))
	if !TypeCheck(vtype.Scalar(vtype.KindIP), tup) {
		t.Error("tuple of IPs should pass ip")
	}
	if TypeCheck(vtype.Scalar(vtype.KindIP), value.ListOf(vs("10.0.0.1", "zzz"))) {
		t.Error("mixed tuple should fail ip")
	}
	// List type against a real list value.
	if !TypeCheck(vtype.ListOf(vtype.KindInt), value.ListOf(vs("1", "2"))) {
		t.Error("list(int) check failed")
	}
	if TypeCheck(vtype.ListOf(vtype.KindInt), value.ListOf([]value.V{value.ListOf(vs("1"))})) {
		t.Error("nested list should fail list(int)")
	}
	if TypeCheck(vtype.Scalar(vtype.KindInt), value.ListOf(nil)) {
		t.Error("empty tuple conforms to nothing scalar")
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, val string
		want     bool
	}{
		{"*.vhd", "image.vhd", true},
		{"*.vhd", "image.iso", false},
		{"/^v[0-9]+$/", "v12", true},
		{"/^v[0-9]+$/", "x12", false},
		{"Fabric", "UtilityFabric", true}, // substring
		{"Fabric", "Storage", false},
	}
	for _, c := range cases {
		got, err := MatchPattern(c.pat, value.Scalar(c.val))
		if err != nil || got != c.want {
			t.Errorf("MatchPattern(%q, %q) = %v, %v; want %v", c.pat, c.val, got, err, c.want)
		}
	}
	if _, err := MatchPattern("/(/", value.Scalar("x")); err == nil {
		t.Error("bad regexp should error")
	}
	// Lists: match if any member matches.
	ok, _ := MatchPattern("*.vhd", value.ListOf(vs("a.iso", "b.vhd")))
	if !ok {
		t.Error("list match should succeed on any member")
	}
}

func TestInRange(t *testing.T) {
	lo, hi := value.Scalar("5"), value.Scalar("15")
	if !InRange(lo, hi, value.Scalar("10")) || !InRange(lo, hi, value.Scalar("5")) || !InRange(lo, hi, value.Scalar("15")) {
		t.Error("inclusive range failed")
	}
	if InRange(lo, hi, value.Scalar("4")) || InRange(lo, hi, value.Scalar("16")) {
		t.Error("out of range passed")
	}
	// IPs.
	ilo, ihi := value.Scalar("10.0.0.1"), value.Scalar("10.0.0.100")
	if !InRange(ilo, ihi, value.Scalar("10.0.0.50")) || InRange(ilo, ihi, value.Scalar("10.0.1.2")) {
		t.Error("IP range failed")
	}
	// Tuple: all members must be in range.
	if !InRange(ilo, ihi, value.ListOf(vs("10.0.0.2", "10.0.0.99"))) {
		t.Error("tuple in range failed")
	}
	if InRange(ilo, ihi, value.ListOf(vs("10.0.0.2", "10.0.2.1"))) {
		t.Error("tuple partially out of range passed")
	}
	if InRange(lo, hi, value.ListOf(nil)) {
		t.Error("empty tuple should not be in range")
	}
}

func TestInEnumAndRel(t *testing.T) {
	members := vs("compute", "storage")
	if !InEnum(members, value.Scalar("compute")) || InEnum(members, value.Scalar("network")) {
		t.Error("enum failed")
	}
	ok, err := Rel("==", value.Scalar("5"), value.Scalar("5.0"))
	if err != nil || !ok {
		t.Error("== numeric failed")
	}
	ok, _ = Rel("<=", value.Scalar("10.0.0.1"), value.Scalar("10.0.0.2"))
	if !ok {
		t.Error("<= IP failed")
	}
	ok, _ = Rel("!=", value.Scalar("a"), value.Scalar("b"))
	if !ok {
		t.Error("!= failed")
	}
	ok, _ = Rel(">", value.Scalar("3"), value.Scalar("2"))
	if !ok {
		t.Error("> failed")
	}
	ok, _ = Rel(">=", value.Scalar("2"), value.Scalar("2"))
	if !ok {
		t.Error(">= failed")
	}
	ok, _ = Rel("<", value.Scalar("2"), value.Scalar("3"))
	if !ok {
		t.Error("< failed")
	}
	if _, err := Rel("~~", value.Scalar("a"), value.Scalar("b")); err == nil {
		t.Error("unknown op should error")
	}
}

func TestConsistentViolations(t *testing.T) {
	if got := ConsistentViolations(vs("a", "a", "a")); got != nil {
		t.Errorf("consistent set flagged: %v", got)
	}
	got := ConsistentViolations(vs("a", "a", "b", "a"))
	if len(got) != 1 || got[0] != 2 {
		t.Errorf("violations = %v, want [2]", got)
	}
	// Majority is the most frequent value, not the first.
	got = ConsistentViolations(vs("x", "y", "y", "y"))
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("violations = %v, want [0]", got)
	}
	// Tie: first-seen wins.
	got = ConsistentViolations(vs("x", "y"))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("tie violations = %v, want [1]", got)
	}
	if ConsistentViolations(vs("a")) != nil || ConsistentViolations(nil) != nil {
		t.Error("small sets are trivially consistent")
	}
}

func TestUniqueViolations(t *testing.T) {
	if got := UniqueViolations(vs("a", "b", "c")); got != nil {
		t.Errorf("unique set flagged: %v", got)
	}
	got := UniqueViolations(vs("a", "b", "a", "a"))
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Errorf("violations = %v, want [2 3]", got)
	}
}

// keyedConsistent and keyedUnique are the aggregate checks as they were
// written over value.V.Key, kept as the oracle of the ones that draw a
// value's identity without building its key.
func keyedConsistent(vals []value.V) []int {
	if len(vals) < 2 {
		return nil
	}
	counts := make(map[string]int)
	order := make(map[string]int)
	for i, v := range vals {
		k := v.Key()
		counts[k]++
		if _, seen := order[k]; !seen {
			order[k] = i
		}
	}
	if len(counts) == 1 {
		return nil
	}
	majority, best := "", -1
	for k, c := range counts {
		if c > best || (c == best && order[k] < order[majority]) {
			majority, best = k, c
		}
	}
	var out []int
	for i, v := range vals {
		if v.Key() != majority {
			out = append(out, i)
		}
	}
	return out
}

func keyedUnique(vals []value.V) []int {
	seen := make(map[string]bool, len(vals))
	var out []int
	for i, v := range vals {
		k := v.Key()
		if seen[k] {
			out = append(out, i)
		}
		seen[k] = true
	}
	return out
}

// Scalars and lists whose texts collide ("l:[s:a]" is a list's key, "" an
// empty list's elements) stay apart, as their keys do.
func TestAggregateChecksMatchKeys(t *testing.T) {
	pool := []value.V{
		value.Scalar("a"), value.Scalar("b"), value.Scalar(""), value.Scalar("l:[s:a]"), value.Scalar("s:a"),
		value.ListOf(vs("a")), value.ListOf(nil), value.ListOf(vs("a", "b")), value.ListOf(vs("")),
		value.ListOf([]value.V{value.ListOf(vs("a"))}),
	}
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 3000; trial++ {
		vals := make([]value.V, rng.Intn(9))
		for i := range vals {
			vals[i] = pool[rng.Intn(len(pool))]
		}
		if got, want := ConsistentViolations(vals), keyedConsistent(vals); !reflect.DeepEqual(got, want) {
			t.Fatalf("ConsistentViolations(%v) = %v, want %v", vals, got, want)
		}
		if got, want := UniqueViolations(vals), keyedUnique(vals); !reflect.DeepEqual(got, want) {
			t.Fatalf("UniqueViolations(%v) = %v, want %v", vals, got, want)
		}
	}
}

func TestOrderedViolations(t *testing.T) {
	if got := OrderedViolations(vs("1", "2", "10")); got != nil {
		t.Errorf("ordered numerics flagged: %v (string order would flag 10)", got)
	}
	got := OrderedViolations(vs("5", "3", "9"))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("violations = %v", got)
	}
}

func TestPathExistsAndReachable(t *testing.T) {
	env := simenv.NewSim()
	env.AddPath(`\\share\OS\v2`)
	env.AddEndpoint("10.0.0.1:443")
	if !PathExists(env, value.Scalar(`\\share\OS\v2`)) {
		t.Error("added path should exist")
	}
	if !PathExists(env, value.Scalar(`\\share\OS`)) {
		t.Error("parent should exist")
	}
	if PathExists(env, value.Scalar(`\\share\OS\v3`)) {
		t.Error("absent path exists")
	}
	// Case-insensitive and separator-insensitive.
	if !PathExists(env, value.Scalar(`\\SHARE/os/V2`)) {
		t.Error("path normalization failed")
	}
	if !Reachable(env, value.Scalar("10.0.0.1:443")) || Reachable(env, value.Scalar("10.0.0.2:443")) {
		t.Error("reachability failed")
	}
	// Lists require all members.
	if PathExists(env, value.ListOf(vs(`\\share\OS\v2`, `\nope`))) {
		t.Error("list with missing member should fail")
	}
}

func TestExtensionPredicates(t *testing.T) {
	env := simenv.NewSim()
	check := func(name string, v string, args ...string) bool {
		f, ok := Lookup(name)
		if !ok {
			t.Fatalf("predicate %q not registered", name)
		}
		av := make([]value.V, len(args))
		for i, a := range args {
			av[i] = value.Scalar(a)
		}
		got, err := f.Check(env, av, value.Scalar(v))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return got
	}
	if !check("startswith", "https://x", "https") || check("startswith", "http://x", "https:") {
		t.Error("startswith failed")
	}
	if !check("endswith", "image.vhd", ".vhd") {
		t.Error("endswith failed")
	}
	if !check("contains", "abcdef", "cde") {
		t.Error("contains failed")
	}
	if !check("incidr", "10.53.129.7", "10.53.129.0/24") || check("incidr", "10.9.0.1", "10.53.129.0/24") {
		t.Error("incidr failed")
	}
	if !check("hostos", "", "simos") || check("hostos", "", "windows") {
		t.Error("hostos failed")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration should panic")
		}
	}()
	Register(&Func{Name: "startswith"})
}

func TestOrderable(t *testing.T) {
	cases := []struct {
		a, b string
		ok   bool
	}{
		{"5", "10", true},                 // numbers
		{"10.0.0.1", "10.0.0.9", true},    // IPs
		{"1KB", "1MB", true},              // sizes
		{"apple", "banana", true},         // both plain text
		{"", "10.0.0.1", false},           // unset vs IP
		{"10.0.0.99x", "10.0.0.1", false}, // malformed vs IP
		{"garbage", "42", false},          // text vs number
		{"", "", false},                   // both unset
	}
	for _, c := range cases {
		if _, ok := Orderable(c.a, c.b); ok != c.ok {
			t.Errorf("Orderable(%q, %q) ok = %v, want %v", c.a, c.b, ok, c.ok)
		}
	}
}

func TestInRangeSkipsIncomparable(t *testing.T) {
	lo, hi := value.Scalar("10.0.0.1"), value.Scalar("10.0.0.99")
	if !InRange(lo, hi, value.Scalar("")) {
		t.Error("unset value should pass a typed range vacuously")
	}
	if !InRange(lo, hi, value.Scalar("10.0.0.50x")) {
		t.Error("malformed value should pass vacuously (shape checks flag it)")
	}
	if InRange(lo, hi, value.Scalar("10.0.0.200")) {
		t.Error("comparable out-of-range value must fail")
	}
}

func TestRelSkipsIncomparableOrdering(t *testing.T) {
	ok, err := Rel("<=", value.Scalar(""), value.Scalar("10.0.0.1"))
	if err != nil || !ok {
		t.Errorf("incomparable ordering should hold vacuously: %v %v", ok, err)
	}
	// Equality still distinguishes.
	ok, _ = Rel("==", value.Scalar(""), value.Scalar("10.0.0.1"))
	if ok {
		t.Error("equality must not be vacuous")
	}
}

// A "nan" or "inf" number with a duration suffix is not a duration: it
// fails the duration type check, and against a duration bound it is a
// mixed-domain pair that range checks leave to that type check, instead
// of ordering as a typed duration inside [1s, 60s].
func TestNonFiniteDurationIsNotADuration(t *testing.T) {
	for _, s := range []string{"nans", "infs", "nanmin"} {
		if TypeCheck(vtype.Scalar(vtype.KindDuration), value.Scalar(s)) {
			t.Errorf("%q passed the duration type check", s)
		}
		if _, ok := Orderable("1s", s); ok {
			t.Errorf("%q orders against the duration bound 1s", s)
		}
	}
}
