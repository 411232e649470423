package lint

// The type-mismatch analyzer cross-checks the conjuncts of a predicate
// against each other in the vtype lattice: a type assertion fixes the
// lattice class of the element, and every other literal constraint in
// the same conjunction must be satisfiable by some member of that
// class. It also rejects invalid /re/ match patterns at lint time with
// a position — on both execution paths, since it runs before either.
//
// Codes:
//
//	CV201 ordered comparison against a non-numeric type assertion
//	CV202 literal range bounds cannot be members of the asserted type
//	CV203 no enum member conforms to the asserted type
//	CV204 ordered comparison against a non-numeric literal
//	CV205 range bounds mix incompatible literal types
//	CV206 invalid regular expression in match()

import (
	"confvalley/internal/compiler"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
	"confvalley/internal/vtype"
)

func init() {
	Register(&Analyzer{
		Name:  "typemismatch",
		Doc:   "predicates whose conjuncts disagree in the value-type lattice",
		Codes: []string{"CV201", "CV202", "CV203", "CV204", "CV205", "CV206"},
		Run:   runTypeMismatch,
	})
}

// numericKinds are the lattice classes ordered comparison makes sense
// for: detect-able totally ordered scalars.
var numericKinds = map[vtype.Kind]bool{
	vtype.KindInt:      true,
	vtype.KindFloat:    true,
	vtype.KindPort:     true,
	vtype.KindSize:     true,
	vtype.KindDuration: true,
	vtype.KindVersion:  true,
}

func runTypeMismatch(p *Pass) {
	// Match-pattern validation works straight off the parse tree, so it
	// fires even when the file does not compile for unrelated reasons.
	for _, st := range p.Stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			if m, ok := n.(*ast.Match); ok {
				if err := compiler.CheckMatchPattern(m.Pattern); err != nil {
					p.Reportf(m.Pos(), "CV206", Error, "%v", err)
				}
			}
			return true
		})
	}
	if p.Prog == nil {
		return
	}
	for _, spec := range p.Prog.Specs {
		checkTypes(p, spec.Pred)
		for _, cond := range spec.Conds {
			checkTypes(p, cond.Spec.Pred)
		}
	}
}

func checkTypes(p *Pass, pred ast.Pred) {
	if pred == nil {
		return
	}
	checkTypeConjunction(p, pred)
	ast.Inspect(pred, func(n ast.Node) bool {
		if q, ok := n.(*ast.QuantPred); ok {
			checkTypeConjunction(p, q.X)
		}
		return true
	})
}

func checkTypeConjunction(p *Pass, pred ast.Pred) {
	conjuncts := compiler.FlattenAnd(pred)

	// The asserted type is the meet of all type assertions in the
	// conjunction; for cross-checking one suffices — take the most
	// specific (lattice-least) one.
	var asserted *ast.TypePred
	for _, c := range conjuncts {
		if t, ok := c.(*ast.TypePred); ok {
			if asserted == nil || vtype.LE(t.T, asserted.T) {
				asserted = t
			}
		}
	}

	for _, c := range conjuncts {
		switch t := c.(type) {
		case *ast.Rel:
			if !isOrdered(t.Op) {
				continue
			}
			if s, ok := litStr(t.Rhs); ok {
				if _, numeric := compiler.NumLit(t.Rhs); !numeric && !numericKinds[vtype.Detect(s).Kind] {
					p.Reportf(t.Pos(), "CV204", Error,
						"ordered comparison %s %s against a non-numeric literal", t.Op, litText(t.Rhs))
					continue
				}
			}
			if asserted != nil && !numericKinds[asserted.T.Kind] && !asserted.T.IsString() {
				p.Reportf(t.Pos(), "CV201", Error,
					"ordered comparison %s %s cannot hold for type %s", t.Op, litText(t.Rhs), asserted.T)
			}
		case *ast.Range:
			lo, okLo := litStr(t.Lo)
			hi, okHi := litStr(t.Hi)
			if okLo && okHi {
				_, loNum := compiler.NumLit(t.Lo)
				_, hiNum := compiler.NumLit(t.Hi)
				if loNum != hiNum {
					p.Reportf(t.Pos(), "CV205", Error,
						"range bounds mix incompatible literal types: %s and %s", litText(t.Lo), litText(t.Hi))
					continue
				}
			}
			if asserted == nil || asserted.T.IsString() {
				continue
			}
			bad := ""
			if okLo && !vtype.Conforms(lo, asserted.T) {
				bad = litText(t.Lo)
			} else if okHi && !vtype.Conforms(hi, asserted.T) {
				bad = litText(t.Hi)
			}
			if bad != "" {
				p.Reportf(t.Pos(), "CV202", Error,
					"range bound %s can never be a member of type %s", bad, asserted.T)
			}
		case *ast.Enum:
			if asserted == nil || asserted.T.IsString() {
				continue
			}
			lits, ok := compiler.EnumLiterals(t)
			if !ok || len(lits) == 0 {
				continue
			}
			conforming := 0
			for _, s := range lits {
				if vtype.Conforms(s, asserted.T) {
					conforming++
				}
			}
			if conforming == 0 {
				p.Reportf(t.Pos(), "CV203", Error,
					"no member of %s conforms to the asserted type %s", ast.Render(t), asserted.T)
			}
		}
	}
}

// isOrdered reports whether the relational operator orders its
// operands: <, <=, >, >=.
func isOrdered(k token.Kind) bool {
	return k == token.LT || k == token.LE || k == token.GT || k == token.GE
}
