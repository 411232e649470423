// Package transform implements CPL's transformation functions (§4.2.1).
// Transformations come in two styles: map-like functions apply to each
// member of a domain independently (split, lower, at), while reduce-like
// functions apply to the whole domain at once (count, union, sum).
//
// User-defined transformations register through Register, the plug-in
// mechanism of §4.2.6 that extends CPL without touching its compiler.
package transform

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"confvalley/internal/value"
	"confvalley/internal/vtype"
)

// Style distinguishes map-like from reduce-like transformations.
type Style int

// Transformation styles.
const (
	Map    Style = iota // element-at-a-time
	Reduce              // whole-domain-at-once
)

// Func is a registered transformation.
type Func struct {
	Name  string
	Style Style
	// Arity is the number of non-domain arguments (-1 = variadic).
	Arity int
	// ScalarInput marks Map transforms that consume scalar values only;
	// when a pipeline feeds such a transform a list element, the engine
	// applies it to each member, expanding the member results into
	// separate pipeline elements (the paper's "iteratively" pass-on rule,
	// §4.2.3).
	ScalarInput bool
	// Apply implements a Map transform: args are evaluated literals.
	Apply func(args []value.V, in value.V) (value.V, error)
	// ApplyAll implements a Reduce transform over the element set.
	ApplyAll func(args []value.V, in []value.V) (value.V, error)
}

var (
	regMu    sync.RWMutex
	registry = make(map[string]*Func)
)

// Register installs a transformation; duplicate names panic.
func Register(f *Func) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[f.Name]; dup {
		panic("transform: duplicate registration of " + f.Name)
	}
	registry[f.Name] = f
}

// Lookup finds a transformation by name.
func Lookup(name string) (*Func, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	f, ok := registry[name]
	return f, ok
}

// Known reports whether name is a registered transformation. The CPL
// parser consults this to distinguish pipeline steps from predicates.
func Known(name string) bool {
	_, ok := Lookup(name)
	return ok
}

func argErr(name string, want int, got int) error {
	return fmt.Errorf("transform %s: expected %d argument(s), got %d", name, want, got)
}

func checkArity(f *Func, args []value.V) error {
	if f.Arity >= 0 && len(args) != f.Arity {
		return argErr(f.Name, f.Arity, len(args))
	}
	return nil
}

// ApplyMap runs a map-style transform on one element after arity checking.
func ApplyMap(f *Func, args []value.V, in value.V) (value.V, error) {
	if f.Style != Map {
		return value.V{}, fmt.Errorf("transform %s is reduce-like; it applies to a whole domain", f.Name)
	}
	if err := checkArity(f, args); err != nil {
		return value.V{}, err
	}
	return f.Apply(args, in)
}

// ApplyReduce runs a reduce-style transform on an element set.
func ApplyReduce(f *Func, args []value.V, in []value.V) (value.V, error) {
	if f.Style != Reduce {
		return value.V{}, fmt.Errorf("transform %s is map-like; it applies to individual elements", f.Name)
	}
	if err := checkArity(f, args); err != nil {
		return value.V{}, err
	}
	return f.ApplyAll(args, in)
}

func keep(in value.V, raw string) value.V { return value.V{Raw: raw, Inst: in.Inst} }

func wantScalar(name string, v value.V) (string, error) {
	if v.IsList() {
		return "", fmt.Errorf("transform %s: expected a scalar value, got list %s", name, v)
	}
	return v.Raw, nil
}

func init() {
	Register(&Func{Name: "split", Style: Map, Arity: 1, ScalarInput: true,
		Apply: func(args []value.V, in value.V) (value.V, error) {
			s, err := wantScalar("split", in)
			if err != nil {
				return value.V{}, err
			}
			sep, err := wantScalar("split", args[0])
			if err != nil {
				return value.V{}, err
			}
			if sep == "" {
				return value.V{}, fmt.Errorf("transform split: empty separator")
			}
			parts := strings.Split(s, sep)
			elems := make([]value.V, len(parts))
			for i, p := range parts {
				elems[i] = value.V{Raw: strings.TrimSpace(p), Inst: in.Inst}
			}
			return value.ListOf(elems), nil
		}})

	Register(&Func{Name: "at", Style: Map, Arity: 1,
		Apply: func(args []value.V, in value.V) (value.V, error) {
			idxStr, err := wantScalar("at", args[0])
			if err != nil {
				return value.V{}, err
			}
			idx, ok := vtype.ParseInt(idxStr)
			if !ok {
				return value.V{}, fmt.Errorf("transform at: index %q is not an integer", idxStr)
			}
			list := in.List
			if !in.IsList() {
				list = []value.V{in} // a scalar is a singleton list
			}
			i := int(idx)
			if i < 0 {
				i = len(list) + i // negative indexes count from the end
			}
			if i < 0 || i >= len(list) {
				return value.V{}, fmt.Errorf("transform at: index %d out of bounds for %d element(s) from %s", idx, len(list), in.Provenance())
			}
			return list[i], nil
		}})

	mapString := func(name string, f func(string) string) {
		Register(&Func{Name: name, Style: Map, Arity: 0,
			Apply: func(_ []value.V, in value.V) (value.V, error) {
				if in.IsList() {
					out := make([]value.V, len(in.List))
					for i, e := range in.List {
						s, err := wantScalar(name, e)
						if err != nil {
							return value.V{}, err
						}
						out[i] = keep(e, f(s))
					}
					return value.ListOf(out), nil
				}
				return keep(in, f(in.Raw)), nil
			}})
	}
	mapString("lower", strings.ToLower)
	mapString("upper", strings.ToUpper)
	mapString("trim", strings.TrimSpace)
	mapString("basename", func(s string) string {
		if i := strings.LastIndexAny(s, `/\`); i >= 0 {
			return s[i+1:]
		}
		return s
	})

	Register(&Func{Name: "replace", Style: Map, Arity: 2, ScalarInput: true,
		Apply: func(args []value.V, in value.V) (value.V, error) {
			s, err := wantScalar("replace", in)
			if err != nil {
				return value.V{}, err
			}
			from, err := wantScalar("replace", args[0])
			if err != nil {
				return value.V{}, err
			}
			to, err := wantScalar("replace", args[1])
			if err != nil {
				return value.V{}, err
			}
			return keep(in, strings.ReplaceAll(s, from, to)), nil
		}})

	Register(&Func{Name: "len", Style: Map, Arity: 0,
		Apply: func(_ []value.V, in value.V) (value.V, error) {
			if in.IsList() {
				return keep(in, strconv.Itoa(len(in.List))), nil
			}
			return keep(in, strconv.Itoa(len(in.Raw))), nil
		}})

	Register(&Func{Name: "abs", Style: Map, Arity: 0, ScalarInput: true,
		Apply: func(_ []value.V, in value.V) (value.V, error) {
			s, err := wantScalar("abs", in)
			if err != nil {
				return value.V{}, err
			}
			f, ok := vtype.ParseFloat(s)
			if !ok {
				return value.V{}, fmt.Errorf("transform abs: %q is not numeric", s)
			}
			return keep(in, formatNum(math.Abs(f))), nil
		}})

	Register(&Func{Name: "count", Style: Reduce, Arity: 0,
		ApplyAll: func(_ []value.V, in []value.V) (value.V, error) {
			// Counting a domain counts its elements; counting a single
			// list value counts its members (Listing 5's "inconsistent
			// number of addresses in MAC range and IP range" check).
			if len(in) == 1 && in[0].IsList() {
				return value.Scalar(strconv.Itoa(len(in[0].List))), nil
			}
			return value.Scalar(strconv.Itoa(len(in))), nil
		}})

	Register(&Func{Name: "distinct", Style: Reduce, Arity: 0,
		ApplyAll: func(_ []value.V, in []value.V) (value.V, error) {
			seen := make(map[string]bool)
			var out []value.V
			for _, v := range in {
				k := v.Key()
				if !seen[k] {
					seen[k] = true
					out = append(out, v)
				}
			}
			return value.ListOf(out), nil
		}})

	Register(&Func{Name: "union", Style: Reduce, Arity: 0,
		ApplyAll: func(_ []value.V, in []value.V) (value.V, error) {
			var out []value.V
			seen := make(map[string]bool)
			for _, v := range in {
				members := []value.V{v}
				if v.IsList() {
					members = v.List
				}
				for _, m := range members {
					k := m.Key()
					if !seen[k] {
						seen[k] = true
						out = append(out, m)
					}
				}
			}
			return value.ListOf(out), nil
		}})

	numReduce := func(name string, fold func(acc, x float64) float64, init func(first float64) float64) {
		Register(&Func{Name: name, Style: Reduce, Arity: 0,
			ApplyAll: func(_ []value.V, in []value.V) (value.V, error) {
				if len(in) == 1 && in[0].IsList() {
					in = in[0].List
				}
				if len(in) == 0 {
					return value.V{}, fmt.Errorf("transform %s: empty domain", name)
				}
				var acc float64
				for i, v := range in {
					s, err := wantScalar(name, v)
					if err != nil {
						return value.V{}, err
					}
					f, ok := vtype.ParseFloat(s)
					if !ok {
						return value.V{}, fmt.Errorf("transform %s: %q is not numeric (%s)", name, s, v.Provenance())
					}
					if i == 0 {
						acc = init(f)
					} else {
						acc = fold(acc, f)
					}
				}
				return value.Scalar(formatNum(acc)), nil
			}})
	}
	numReduce("sum", func(a, x float64) float64 { return a + x }, func(f float64) float64 { return f })
	numReduce("min", math.Min, func(f float64) float64 { return f })
	numReduce("max", math.Max, func(f float64) float64 { return f })

	Register(&Func{Name: "first", Style: Reduce, Arity: 0,
		ApplyAll: func(_ []value.V, in []value.V) (value.V, error) {
			if len(in) == 0 {
				return value.V{}, fmt.Errorf("transform first: empty domain")
			}
			return in[0], nil
		}})
	Register(&Func{Name: "last", Style: Reduce, Arity: 0,
		ApplyAll: func(_ []value.V, in []value.V) (value.V, error) {
			if len(in) == 0 {
				return value.V{}, fmt.Errorf("transform last: empty domain")
			}
			return in[len(in)-1], nil
		}})
}

// formatNum renders a float without a trailing ".0" for whole numbers, so
// arithmetic on integers stays integer-shaped.
func formatNum(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Arith applies a binary arithmetic operator to two scalar values,
// implementing domain arithmetic ($A + $B).
func Arith(op string, a, b value.V) (value.V, error) {
	as, err := wantScalar("arithmetic", a)
	if err != nil {
		return value.V{}, err
	}
	bs, err := wantScalar("arithmetic", b)
	if err != nil {
		return value.V{}, err
	}
	af, ok := vtype.ParseFloat(as)
	if !ok {
		return value.V{}, fmt.Errorf("arithmetic: %q is not numeric (%s)", as, a.Provenance())
	}
	bf, ok := vtype.ParseFloat(bs)
	if !ok {
		return value.V{}, fmt.Errorf("arithmetic: %q is not numeric (%s)", bs, b.Provenance())
	}
	var r float64
	switch op {
	case "+":
		r = af + bf
	case "-":
		r = af - bf
	case "*":
		r = af * bf
	case "/":
		if bf == 0 {
			return value.V{}, fmt.Errorf("arithmetic: division by zero (%s)", b.Provenance())
		}
		r = af / bf
	default:
		return value.V{}, fmt.Errorf("arithmetic: unknown operator %q", op)
	}
	out := value.Scalar(formatNum(r))
	out.Inst = a.Inst
	return out, nil
}
