package lint

// The contradiction analyzer proves a predicate can never hold using
// literal-only reasoning: numeric intervals from ranges and relations,
// string sets from enums and equality relations, and structural
// negation (p and ~p). A contradictory specification flags every
// instance of its domain, which is almost never what the author meant —
// hence error severity.
//
// Codes:
//
//	CV101 empty range: lo > hi
//	CV102 range and enum can never intersect
//	CV103 relations are mutually exclusive (empty numeric interval or
//	      conflicting equalities)
//	CV104 enums have no common member
//	CV105 predicate conjoins p with its own negation (including inside
//	      a quantifier body, which is then always false)

import (
	"math"
	"strconv"

	"confvalley/internal/compiler"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
)

func init() {
	Register(&Analyzer{
		Name:  "contradiction",
		Doc:   "specs whose predicate is provably always false",
		Codes: []string{"CV101", "CV102", "CV103", "CV104", "CV105"},
		Run:   runContradiction,
	})
}

func runContradiction(p *Pass) {
	if p.Prog == nil {
		return
	}
	for _, spec := range p.Prog.Specs {
		checkContradiction(p, spec.Pred)
		for _, cond := range spec.Conds {
			checkContradiction(p, cond.Spec.Pred)
		}
	}
}

// checkContradiction analyzes one predicate tree: the top-level
// conjunction, then every quantifier body it contains.
func checkContradiction(p *Pass, pred ast.Pred) {
	if pred == nil {
		return
	}
	checkConjunction(p, pred, false)
	ast.Inspect(pred, func(n ast.Node) bool {
		if q, ok := n.(*ast.QuantPred); ok {
			checkConjunction(p, q.X, true)
		}
		return true
	})
}

// interval is a numeric constraint [lo, hi] with optional exclusions.
type interval struct {
	lo, hi float64
	src    ast.Pred // the conjunct that last narrowed the interval
}

func newInterval() interval { return interval{lo: math.Inf(-1), hi: math.Inf(1)} }

func (iv *interval) narrowLo(v float64, src ast.Pred) {
	if v > iv.lo {
		iv.lo, iv.src = v, src
	}
}

func (iv *interval) narrowHi(v float64, src ast.Pred) {
	if v < iv.hi {
		iv.hi, iv.src = v, src
	}
}

func (iv interval) empty() bool { return iv.lo > iv.hi }

// checkConjunction inspects one flattened conjunction for impossible
// combinations of literal constraints.
func checkConjunction(p *Pass, pred ast.Pred, inQuant bool) {
	conjuncts := compiler.FlattenAnd(pred)
	iv := newInterval()
	var enums []*ast.Enum // enums with all-literal members
	var eqs []*ast.Rel    // == literal relations

	code105 := func(pos token.Pos, what string) {
		msg := "predicate conjoins %s with its negation and can never hold"
		if inQuant {
			msg = "quantifier body conjoins %s with its negation and is always false"
		}
		p.Reportf(pos, "CV105", Error, msg, what)
	}

	// Structural negation: p and ~p anywhere in the same conjunction.
	for i, a := range conjuncts {
		for _, b := range conjuncts[i+1:] {
			if n, ok := b.(*ast.Not); ok && ast.Render(n.X) == ast.Render(a) {
				code105(n.Pos(), ast.Render(a))
			}
			if n, ok := a.(*ast.Not); ok && ast.Render(n.X) == ast.Render(b) {
				code105(b.Pos(), ast.Render(b))
			}
		}
	}

	for _, c := range conjuncts {
		if r, ok := c.(*ast.Range); ok {
			lo, okLo := compiler.NumLit(r.Lo)
			hi, okHi := compiler.NumLit(r.Hi)
			if okLo && okHi && lo > hi {
				p.Reportf(r.Pos(), "CV101", Error,
					"empty range [%s, %s]: lower bound exceeds upper bound",
					litText(r.Lo), litText(r.Hi))
				continue
			}
		}
		if lo, hi, ok := compiler.NumInterval(c); ok {
			iv.narrowLo(lo, c)
			iv.narrowHi(hi, c)
		}
		switch t := c.(type) {
		case *ast.Rel:
			if _, ok := litStr(t.Rhs); ok && t.Op == token.EQ {
				eqs = append(eqs, t)
			}
		case *ast.Enum:
			if lits, ok := compiler.EnumLiterals(t); ok && len(lits) > 0 {
				enums = append(enums, t)
			}
		}
		if iv.empty() {
			p.Reportf(iv.src.Pos(), "CV103", Error,
				"relations are mutually exclusive: no value satisfies all numeric constraints (%s)",
				ast.Render(iv.src))
			return
		}
	}

	// Conflicting equalities: == 'a' and == 'b'.
	for i, a := range eqs {
		av, _ := litStr(a.Rhs)
		for _, b := range eqs[i+1:] {
			bv, _ := litStr(b.Rhs)
			if av != bv && !numEqual(av, bv) {
				p.Reportf(b.Pos(), "CV103", Error,
					"relations are mutually exclusive: == %s conflicts with == %s",
					litText(a.Rhs), litText(b.Rhs))
				return
			}
		}
	}

	// Enum vs enum: empty intersection.
	for i, a := range enums {
		as, _ := compiler.EnumLiterals(a)
		for _, b := range enums[i+1:] {
			bs, _ := compiler.EnumLiterals(b)
			if disjoint(as, bs) {
				p.Reportf(b.Pos(), "CV104", Error,
					"enums have no common member: %s and %s can never intersect",
					ast.Render(a), ast.Render(b))
				return
			}
		}
	}

	// Enum vs interval (from ranges and relations): no member fits.
	for _, e := range enums {
		lits, _ := compiler.EnumLiterals(e)
		anyNumeric, anyFits := false, false
		for _, s := range lits {
			if v, err := strconv.ParseFloat(s, 64); err == nil {
				anyNumeric = true
				if v >= iv.lo && v <= iv.hi {
					anyFits = true
				}
			}
		}
		if anyNumeric && !anyFits && (iv.lo > math.Inf(-1) || iv.hi < math.Inf(1)) {
			p.Reportf(e.Pos(), "CV102", Error,
				"no enum member lies in the constrained interval [%s, %s]",
				fmtBound(iv.lo), fmtBound(iv.hi))
			return
		}
	}

	// Enum vs equality: == literal not in the enum.
	for _, e := range enums {
		lits, _ := compiler.EnumLiterals(e)
		set := map[string]bool{}
		for _, s := range lits {
			set[s] = true
		}
		for _, q := range eqs {
			v, _ := litStr(q.Rhs)
			if !set[v] && !anyNumEqual(v, lits) {
				p.Reportf(q.Pos(), "CV104", Error,
					"== %s is not a member of enum %s", litText(q.Rhs), ast.Render(e))
				return
			}
		}
	}
}

// ---- shared literal helpers ----

func litStr(e ast.Expr) (string, bool) {
	l, ok := e.(*ast.Lit)
	if !ok {
		return "", false
	}
	return l.Text, true
}

func litText(e ast.Expr) string {
	if l, ok := e.(*ast.Lit); ok {
		if l.Kind == token.STRING {
			return "'" + l.Text + "'"
		}
		return l.Text
	}
	return ast.Render(e)
}

func disjoint(a, b []string) bool {
	set := map[string]bool{}
	for _, s := range a {
		set[s] = true
	}
	for _, s := range b {
		if set[s] || anyNumEqual(s, a) {
			return false
		}
	}
	return true
}

// numEqual treats '5' and '5.0' as the same value.
func numEqual(a, b string) bool {
	av, aerr := strconv.ParseFloat(a, 64)
	bv, berr := strconv.ParseFloat(b, 64)
	return aerr == nil && berr == nil && av == bv
}

func anyNumEqual(s string, set []string) bool {
	for _, m := range set {
		if numEqual(s, m) {
			return true
		}
	}
	return false
}

func fmtBound(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}
