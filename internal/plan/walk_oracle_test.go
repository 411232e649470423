package plan

// The footprint walk and the lowerer's $_-dependence walk as they stood
// before both became ast.Inspect callbacks, kept verbatim (renamed) as
// FuzzFootprint's differential oracles.

import (
	"fmt"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
)

type oracleFPBuilder struct {
	prog  *compiler.Program
	spec  *compiler.Spec
	comps []config.Pattern // every compartment context a ref may resolve under
	seen  map[string]bool
	fp    Footprint
	depth int
}

// oracleExtractFootprint computes the footprint of one compiled specification.
func oracleExtractFootprint(prog *compiler.Program, spec *compiler.Spec) Footprint {
	b := &oracleFPBuilder{prog: prog, spec: spec, seen: make(map[string]bool)}
	b.collectComps()
	for _, cond := range spec.Conds {
		b.walkDomain(cond.Spec.Domain)
		b.walkPred(cond.Spec.Pred)
	}
	for _, dom := range spec.Domains {
		b.walkDomain(dom)
	}
	b.walkPred(spec.Pred)
	if b.fp.Dynamic {
		b.fp.Patterns = nil
	}
	return b.fp
}

// collectComps gathers the compartment patterns any reference in the
// spec may be resolved under: the spec-level compartment plus each
// inline-lifted one, mirroring lowerDomainEval.
func (b *oracleFPBuilder) collectComps() {
	add := func(p *config.Pattern) {
		if p == nil {
			return
		}
		for _, have := range b.comps {
			if have.String() == p.String() {
				return
			}
		}
		b.comps = append(b.comps, *p)
	}
	add(b.spec.Compartment)
	for _, dom := range b.spec.Domains {
		var cd *ast.CompartmentDomain
		switch t := dom.(type) {
		case *ast.CompartmentDomain:
			cd = t
		case *ast.Pipe:
			if c, ok := t.Src.(*ast.CompartmentDomain); ok {
				cd = c
			}
		}
		if cd == nil {
			continue
		}
		p := cd.Scope
		if b.spec.Compartment != nil {
			p = cd.Scope.Prefixed(*b.spec.Compartment)
		}
		add(&p)
	}
}

// dynamic marks the footprint Dynamic, keeping the first reason hit by
// the walk as the diagnostic explanation.
func (b *oracleFPBuilder) dynamic(reason string) {
	if !b.fp.Dynamic {
		b.fp.Reason = reason
	}
	b.fp.Dynamic = true
}

// addRef records a configuration reference under every candidate prefix
// the executor could try. References with variables are data-dependent:
// the spec becomes Dynamic.
func (b *oracleFPBuilder) addRef(pat config.Pattern) {
	if pat.HasVars() {
		b.dynamic(fmt.Sprintf("reference %s contains variables resolved from data", pat))
		return
	}
	add := func(p config.Pattern) {
		ps := p.String()
		if b.seen[ps] {
			return
		}
		b.seen[ps] = true
		b.fp.Patterns = append(b.fp.Patterns, p)
	}
	add(pat)
	for _, ns := range b.spec.Namespaces {
		add(pat.Prefixed(ns))
	}
	for _, comp := range b.comps {
		add(pat.Prefixed(comp))
		for _, ns := range b.spec.Namespaces {
			add(pat.Prefixed(ns).Prefixed(comp))
		}
	}
}

func (b *oracleFPBuilder) walkDomain(d ast.Domain) {
	switch t := d.(type) {
	case *ast.Ref:
		b.addRef(t.Pattern)
	case *ast.PipeVar:
		// $_ reads the current pipeline element, not the store.
	case *ast.Pipe:
		b.walkDomain(t.Src)
		for _, s := range t.Steps {
			if s.Guard != nil {
				b.walkPred(s.Guard)
			}
			for _, a := range s.T.Args {
				b.walkExpr(a)
			}
		}
	case *ast.BinaryDomain:
		b.walkDomain(t.L)
		b.walkDomain(t.R)
	case *ast.CompartmentDomain:
		b.walkDomain(t.Inner)
	default:
		b.dynamic(fmt.Sprintf("unanalyzable domain construct %T", d))
	}
}

func (b *oracleFPBuilder) walkExpr(x ast.Expr) {
	switch t := x.(type) {
	case *ast.Lit:
	case *ast.DomainExpr:
		b.walkDomain(t.D)
	default:
		b.dynamic(fmt.Sprintf("unanalyzable expression %T", x))
	}
}

func (b *oracleFPBuilder) walkPred(p ast.Pred) {
	switch t := p.(type) {
	case nil:
	case *ast.And:
		b.walkPred(t.L)
		b.walkPred(t.R)
	case *ast.Or:
		b.walkPred(t.L)
		b.walkPred(t.R)
	case *ast.Not:
		b.walkPred(t.X)
	case *ast.QuantPred:
		b.walkPred(t.X)
	case *ast.IfPred:
		b.walkPred(t.Cond)
		b.walkPred(t.Then)
		if t.Else != nil {
			b.walkPred(t.Else)
		}
	case *ast.MacroRef:
		m, ok := b.prog.Macros[t.Name]
		if !ok || b.depth >= macroDepthLimit {
			b.dynamic(fmt.Sprintf("macro @%s cannot be expanded statically", t.Name))
			return
		}
		b.depth++
		b.walkPred(m)
		b.depth--
	case *ast.TypePred, *ast.Prim, *ast.Match:
		// Element-only (or environment-only) predicates: no store reads.
	case *ast.Range:
		b.walkExpr(t.Lo)
		b.walkExpr(t.Hi)
	case *ast.Enum:
		for _, el := range t.Elems {
			b.walkExpr(el)
		}
	case *ast.Rel:
		b.walkExpr(t.Rhs)
	case *ast.Call:
		for _, a := range t.Args {
			b.walkExpr(a)
		}
	default:
		b.dynamic(fmt.Sprintf("unanalyzable predicate construct %T", p))
	}
}

// oracleDeepUsesCur decides whether hoisting an expression out of a per-element
// loop is sound. Unlike ExprUsesCur (which mirrors the interpreter's
// shallow check and therefore its semantics), this walk descends into
// pipeline step guards and arguments and answers conservatively: any
// construct it cannot see through counts as depending on $_.
func oracleDeepUsesCur(x ast.Expr) bool {
	switch t := x.(type) {
	case *ast.Lit:
		return false
	case *ast.DomainExpr:
		return oracleDomainUsesCur(t.D)
	}
	return true
}

func oracleDomainUsesCur(d ast.Domain) bool {
	switch t := d.(type) {
	case *ast.PipeVar:
		return true
	case *ast.Ref:
		for _, v := range t.Pattern.Vars() {
			if v == "_" {
				return true
			}
		}
		return false
	case *ast.Pipe:
		if oracleDomainUsesCur(t.Src) {
			return true
		}
		for _, s := range t.Steps {
			if s.Guard != nil && oraclePredUsesCur(s.Guard) {
				return true
			}
			for _, a := range s.T.Args {
				if oracleDeepUsesCur(a) {
					return true
				}
			}
		}
		return false
	case *ast.BinaryDomain:
		return oracleDomainUsesCur(t.L) || oracleDomainUsesCur(t.R)
	case *ast.CompartmentDomain:
		return oracleDomainUsesCur(t.Inner)
	}
	return true
}

func oraclePredUsesCur(p ast.Pred) bool {
	switch t := p.(type) {
	case *ast.And:
		return oraclePredUsesCur(t.L) || oraclePredUsesCur(t.R)
	case *ast.Or:
		return oraclePredUsesCur(t.L) || oraclePredUsesCur(t.R)
	case *ast.Not:
		return oraclePredUsesCur(t.X)
	case *ast.QuantPred:
		return oraclePredUsesCur(t.X)
	case *ast.IfPred:
		return oraclePredUsesCur(t.Cond) || oraclePredUsesCur(t.Then) ||
			(t.Else != nil && oraclePredUsesCur(t.Else))
	case *ast.TypePred, *ast.Prim, *ast.Match:
		return false
	case *ast.Range:
		return oracleDeepUsesCur(t.Lo) || oracleDeepUsesCur(t.Hi)
	case *ast.Enum:
		for _, e := range t.Elems {
			if oracleDeepUsesCur(e) {
				return true
			}
		}
		return false
	case *ast.Rel:
		return oracleDeepUsesCur(t.Rhs)
	case *ast.Call:
		for _, a := range t.Args {
			if oracleDeepUsesCur(a) {
				return true
			}
		}
		return false
	}
	return true // MacroRef and unknown constructs: assume dependence
}
