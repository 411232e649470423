// Package predicate implements CPL's predicate primitives (§4.2.1): type
// membership, nonemptiness, pattern matching, ranges, enumerations,
// relations, and the aggregate predicates consistent/unique/ordered. It
// also hosts the extension registry (§4.2.6) through which new predicates
// plug in without modifying the CPL compiler.
package predicate

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"

	"confvalley/internal/config"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
	"confvalley/internal/vtype"
)

// Nonempty reports whether the value is non-blank (lists: has at least one
// non-blank member).
func Nonempty(v value.V) bool {
	if v.IsList() {
		for _, e := range v.List {
			if Nonempty(e) {
				return true
			}
		}
		return false
	}
	return strings.TrimSpace(v.Raw) != ""
}

// TypeCheck reports whether the value conforms to a CPL type. Tuples and
// lists check every member against the scalar kind, or the whole value
// against a list type.
//
// An empty scalar passes vacuously: type constraints describe the shape
// of set values, while emptiness is the nonempty predicate's concern.
// Configuration repositories routinely leave parameters unset in some
// scopes; coupling type and presence would make every inferred type
// constraint fire on unset instances.
func TypeCheck(t vtype.Type, v value.V) bool {
	if !v.IsList() && strings.TrimSpace(v.Raw) == "" {
		return true
	}
	if v.IsList() {
		if t.Kind == vtype.KindList {
			for _, e := range v.List {
				if e.IsList() || !vtype.Conforms(e.Raw, vtype.Scalar(t.Elem)) {
					return false
				}
			}
			return true
		}
		for _, e := range v.List {
			if !TypeCheck(t, e) {
				return false
			}
		}
		return len(v.List) > 0
	}
	return vtype.Conforms(v.Raw, t)
}

// MatchPattern reports whether the value matches a pattern. Patterns
// wrapped in slashes (/.../) are regular expressions; anything else is a
// substring match unless it contains '*', in which case it is a glob.
// This mirrors how the Azure validation scripts mixed all three styles.
func MatchPattern(pattern string, v value.V) (bool, error) {
	if v.IsList() {
		for _, e := range v.List {
			ok, err := MatchPattern(pattern, e)
			if err != nil || ok {
				return ok, err
			}
		}
		return false, nil
	}
	if len(pattern) >= 2 && strings.HasPrefix(pattern, "/") && strings.HasSuffix(pattern, "/") {
		re, err := compileRegexp(pattern[1 : len(pattern)-1])
		if err != nil {
			return false, fmt.Errorf("match: bad regular expression %q: %v", pattern, err)
		}
		return re.MatchString(v.Raw), nil
	}
	if strings.Contains(pattern, "*") {
		return config.Glob(pattern, v.Raw), nil
	}
	return strings.Contains(v.Raw, pattern), nil
}

// reCache memoizes compiled regular expressions — and compile failures,
// so a bad pattern is not re-parsed on every instance it is checked
// against. A sync.Map keeps the parallel validation path lock-free once
// a pattern has been seen.
var reCache sync.Map // expr string → reEntry

type reEntry struct {
	re  *regexp.Regexp
	err error
}

func compileRegexp(expr string) (*regexp.Regexp, error) {
	if e, ok := reCache.Load(expr); ok {
		ent := e.(reEntry)
		return ent.re, ent.err
	}
	re, err := regexp.Compile(expr)
	e, _ := reCache.LoadOrStore(expr, reEntry{re, err})
	ent := e.(reEntry)
	return ent.re, ent.err
}

// Orderable compares two raw values when ordering them is meaningful:
// a typed comparison (numbers, IPs, versions, sizes, durations), or a
// lexicographic one when both sides are plain text. The second result is
// false for mixed-domain pairs ("10.0.0.99x" against an IP bound, an
// empty value against a number) — ordering such pairs produces arbitrary
// verdicts, so range and relational checks skip them and leave malformed
// values to the shape predicates (types, nonempty).
func Orderable(a, b string) (int, bool) {
	c, typed := vtype.CompareValues(a, b)
	if typed {
		return c, true
	}
	if vtype.Detect(a).IsString() && vtype.Detect(b).IsString() &&
		strings.TrimSpace(a) != "" && strings.TrimSpace(b) != "" {
		return c, true
	}
	return c, false
}

// InRange reports whether the value lies in [lo, hi] inclusive, using
// typed comparison (numbers, IPs, versions, sizes, durations). A list or
// tuple is in range when every member is. Values incomparable with the
// bounds pass vacuously (see Orderable).
func InRange(lo, hi, v value.V) bool {
	if v.IsList() {
		if len(v.List) == 0 {
			return false
		}
		for _, e := range v.List {
			if !InRange(lo, hi, e) {
				return false
			}
		}
		return true
	}
	if lo.IsList() || hi.IsList() {
		return value.Compare(lo, v) <= 0 && value.Compare(v, hi) <= 0
	}
	lc, lok := Orderable(lo.Raw, v.Raw)
	hc, hok := Orderable(v.Raw, hi.Raw)
	if !lok || !hok {
		return true // incomparable: not this check's concern
	}
	return lc <= 0 && hc <= 0
}

// InEnum reports whether the value equals one of the members.
func InEnum(members []value.V, v value.V) bool {
	for _, m := range members {
		if value.Equal(m, v) {
			return true
		}
	}
	return false
}

// Rel evaluates a relational operator between two values. Equality works
// on any pair; ordering operators skip incomparable scalar pairs (see
// Orderable), holding vacuously.
func Rel(op string, a, b value.V) (bool, error) {
	switch op {
	case "==":
		return value.Equal(a, b), nil
	case "!=":
		return !value.Equal(a, b), nil
	}
	var c int
	if !a.IsList() && !b.IsList() {
		var ok bool
		c, ok = Orderable(a.Raw, b.Raw)
		if !ok {
			switch op {
			case "<", "<=", ">", ">=":
				return true, nil // incomparable: not this check's concern
			}
		}
	} else {
		c = value.Compare(a, b)
	}
	switch op {
	case "<":
		return c < 0, nil
	case "<=":
		return c <= 0, nil
	case ">":
		return c > 0, nil
	case ">=":
		return c >= 0, nil
	}
	return false, fmt.Errorf("unknown relational operator %q", op)
}

// ConsistentViolations returns the indexes of values that disagree with
// the majority value; an empty result means the set is consistent. Ties
// pick the first-seen value as the majority, so reports blame the late
// divergent instances, which matches operator expectations.
func ConsistentViolations(vals []value.V) []int {
	if len(vals) < 2 {
		return nil
	}
	first := keyOf(vals[0])
	i := 1
	for i < len(vals) && keyOf(vals[i]) == first {
		i++
	}
	if i == len(vals) {
		return nil // one value throughout, counted without a map
	}
	type tally struct{ n, first int }
	counts := make(map[groupKey]tally)
	for i, v := range vals {
		k := keyOf(v)
		t, seen := counts[k]
		if !seen {
			t.first = i
		}
		t.n++
		counts[k] = t
	}
	var majority groupKey
	best := tally{n: -1}
	for k, t := range counts {
		if t.n > best.n || (t.n == best.n && t.first < best.first) {
			majority, best = k, t
		}
	}
	var out []int
	for i, v := range vals {
		if keyOf(v) != majority {
			out = append(out, i)
		}
	}
	return out
}

// UniqueViolations returns the indexes of values that duplicate an earlier
// value; empty means all values are distinct.
func UniqueViolations(vals []value.V) []int {
	seen := make(map[groupKey]bool, len(vals))
	var out []int
	for i, v := range vals {
		k := keyOf(v)
		if seen[k] {
			out = append(out, i)
		}
		seen[k] = true
	}
	return out
}

// groupKey is a value's identity for consistency and uniqueness: two
// values have equal groupKeys exactly when their value.V.Keys are equal,
// but a scalar's is its raw text, with no string built for it.
type groupKey struct {
	list bool
	s    string // a scalar's Raw, a list's Key
}

func keyOf(v value.V) groupKey {
	if v.IsList() {
		return groupKey{list: true, s: v.Key()}
	}
	return groupKey{s: v.Raw}
}

// OrderedViolations returns the indexes where the sequence decreases;
// empty means the values are non-decreasing in typed order.
func OrderedViolations(vals []value.V) []int {
	var out []int
	for i := 1; i < len(vals); i++ {
		if value.Compare(vals[i-1], vals[i]) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// ---- Extension registry (§4.2.6) ----

// Func is an extension predicate: a named boolean check over one element,
// with literal arguments and access to the runtime environment.
type Func struct {
	Name  string
	Arity int // -1 = variadic
	Check func(env simenv.Env, args []value.V, v value.V) (bool, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Func)
)

// Register installs an extension predicate; duplicates panic. The paper
// reports ~70 lines of C# per predicate built on the compiler's base
// classes; here a predicate is one function plus a Register call.
func Register(f *Func) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic("predicate: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// Lookup finds an extension predicate.
func Lookup(name string) (*Func, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// Names lists registered extension predicates, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func scalarArg(name string, args []value.V, i int) (string, error) {
	if args[i].IsList() {
		return "", fmt.Errorf("predicate %s: argument %d must be a scalar", name, i+1)
	}
	return args[i].Raw, nil
}

func init() {
	Register(&Func{Name: "startswith", Arity: 1,
		Check: func(_ simenv.Env, args []value.V, v value.V) (bool, error) {
			p, err := scalarArg("startswith", args, 0)
			if err != nil {
				return false, err
			}
			return strings.HasPrefix(v.Raw, p), nil
		}})
	Register(&Func{Name: "endswith", Arity: 1,
		Check: func(_ simenv.Env, args []value.V, v value.V) (bool, error) {
			p, err := scalarArg("endswith", args, 0)
			if err != nil {
				return false, err
			}
			return strings.HasSuffix(v.Raw, p), nil
		}})
	Register(&Func{Name: "contains", Arity: 1,
		Check: func(_ simenv.Env, args []value.V, v value.V) (bool, error) {
			p, err := scalarArg("contains", args, 0)
			if err != nil {
				return false, err
			}
			return strings.Contains(v.Raw, p), nil
		}})
	// incidr: "PrimaryIP lies in a CIDR block" from Figure 2.
	Register(&Func{Name: "incidr", Arity: 1,
		Check: func(_ simenv.Env, args []value.V, v value.V) (bool, error) {
			block, err := scalarArg("incidr", args, 0)
			if err != nil {
				return false, err
			}
			if v.IsList() {
				for _, e := range v.List {
					if !vtype.IPInCIDR(e.Raw, block) {
						return false, nil
					}
				}
				return len(v.List) > 0, nil
			}
			return vtype.IPInCIDR(v.Raw, block), nil
		}})
	// envequals: value of a host environment variable, another §4.3
	// runtime-information predicate ("the OS name of a host or date time
	// can be used in predicates").
	Register(&Func{Name: "envequals", Arity: 2,
		Check: func(env simenv.Env, args []value.V, _ value.V) (bool, error) {
			name, err := scalarArg("envequals", args, 0)
			if err != nil {
				return false, err
			}
			want, err := scalarArg("envequals", args, 1)
			if err != nil {
				return false, err
			}
			return env.Getenv(name) == want, nil
		}})
	// hostos: dynamic predicate using runtime information (§4.3).
	Register(&Func{Name: "hostos", Arity: 1,
		Check: func(env simenv.Env, args []value.V, _ value.V) (bool, error) {
			want, err := scalarArg("hostos", args, 0)
			if err != nil {
				return false, err
			}
			return strings.EqualFold(env.OSName(), want), nil
		}})
}

// PathExists evaluates the "exists" primitive against the environment.
func PathExists(env simenv.Env, v value.V) bool {
	if v.IsList() {
		for _, e := range v.List {
			if !PathExists(env, e) {
				return false
			}
		}
		return len(v.List) > 0
	}
	return env.PathExists(v.Raw)
}

// Reachable evaluates the "reachable" primitive against the environment.
func Reachable(env simenv.Env, v value.V) bool {
	if v.IsList() {
		for _, e := range v.List {
			if !Reachable(env, e) {
				return false
			}
		}
		return len(v.List) > 0
	}
	return env.Reachable(v.Raw)
}

// RelTo specializes Rel for a fixed scalar right-hand side: the right
// side's typed interpretations are parsed once (vtype.Classify), so
// per-element checks parse only the left side. The returned check agrees
// with Rel(op, a, b) on every input; nil when b is a list or op is
// unknown, in which case callers fall back to Rel.
func RelTo(op string, b value.V) func(a value.V) (bool, error) {
	if b.IsList() {
		return nil
	}
	cb := vtype.Classify(b.Raw)
	switch op {
	case "==", "!=":
		neg := op == "!="
		return func(a value.V) (bool, error) {
			if a.IsList() {
				return neg, nil // a list never equals a scalar
			}
			eq := a.Raw == cb.Raw
			if !eq {
				if c, typed := cb.Compare(a.Raw); typed {
					eq = c == 0
				}
			}
			return eq != neg, nil
		}
	case "<", "<=", ">", ">=":
		return func(a value.V) (bool, error) {
			if a.IsList() {
				return Rel(op, a, b) // mixed shapes: generic path
			}
			c, typed := cb.Compare(a.Raw)
			if !typed && !(cb.Stringish && vtype.Detect(a.Raw).IsString() && strings.TrimSpace(a.Raw) != "") {
				return true, nil // incomparable: not this check's concern
			}
			switch op {
			case "<":
				return c < 0, nil
			case "<=":
				return c <= 0, nil
			case ">":
				return c > 0, nil
			}
			return c >= 0, nil
		}
	}
	return nil
}
