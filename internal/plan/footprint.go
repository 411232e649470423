package plan

// Footprint extraction: one more pass of the lowering walk that collects
// every discovery pattern a specification can ever hand to the store —
// domain references, condition domains, predicate-embedded domains
// (range bounds, enum members, relation right-hand sides, call and
// transform arguments) — expanded across all namespace and compartment
// prefixes the runtime resolution order could try. The incremental
// engine re-runs a spec when any changed key matches any footprint
// pattern; a spec whose reads cannot be bounded statically is marked
// Dynamic and re-runs every round.
//
// Soundness argument, in terms of the executor:
//
//   - refNode.resolve tries candidates in resolution order
//     (compartment+namespace, compartment, namespaces, bare) and stops
//     at the first non-empty result. Which candidate wins depends on
//     the data, so the footprint includes *every* candidate: a change
//     matching a losing candidate can flip the winner.
//   - Plain conditional guards evaluate inside the compartment context,
//     so condition references get compartment-prefixed candidates too.
//   - A reference containing variables ($_ from a pipeline, a
//     condition-bound variable, an index variable) discovers patterns
//     assembled from data; the spec is Dynamic.
//   - Environment-reading predicates (exists, reachable, registered
//     Calls) are not configuration reads; incremental validation
//     assumes the environment is unchanged between rounds.
//   - Any construct the walk cannot see through — including undefined
//     macros and unsupported nodes whose lowered closures error at run
//     time — makes the spec Dynamic.

import (
	"fmt"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
)

// Footprint is the static read set of one specification.
type Footprint struct {
	// Patterns are all discovery patterns the spec can pass to the
	// store, deduplicated, with every namespace and compartment prefix
	// candidate expanded. Meaningful only when !Dynamic.
	Patterns []config.Pattern
	// Dynamic marks a spec whose reads are data-dependent (piped $_
	// references, condition-bound variables) or unanalyzable; it must
	// re-run on every incremental round.
	Dynamic bool
	// Reason says why the spec is Dynamic (the first cause the walk
	// hit), for diagnostics. Empty when !Dynamic.
	Reason string
}

// Footprint returns the spec node's static read set, extracted during
// lowering.
func (n *SpecNode) Footprint() Footprint { return n.fp }

// macroDepthLimit bounds macro inlining during the footprint walk; the
// compiler rejects recursive macros, so this is a belt-and-suspenders
// guard that degrades to Dynamic instead of overflowing.
const macroDepthLimit = 64

type fpBuilder struct {
	prog  *compiler.Program
	spec  *compiler.Spec
	comps []config.Pattern // every compartment context a ref may resolve under
	seen  map[string]bool
	fp    Footprint
	depth int
}

// ExtractFootprint computes the footprint of one compiled specification
// without lowering it. Static-analysis passes use it to reason about a
// spec's read set (and why it could not be bounded) outside the
// incremental engine.
func ExtractFootprint(prog *compiler.Program, spec *compiler.Spec) Footprint {
	return extractFootprint(prog, spec)
}

// extractFootprint computes the footprint of one compiled specification.
func extractFootprint(prog *compiler.Program, spec *compiler.Spec) Footprint {
	b := &fpBuilder{prog: prog, spec: spec, seen: make(map[string]bool)}
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
func (b *fpBuilder) collectComps() {
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
func (b *fpBuilder) dynamic(reason string) {
	if !b.fp.Dynamic {
		b.fp.Reason = reason
	}
	b.fp.Dynamic = true
}

// addRef records a configuration reference under every candidate prefix
// the executor could try. References with variables are data-dependent:
// the spec becomes Dynamic.
func (b *fpBuilder) addRef(pat config.Pattern) {
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

func (b *fpBuilder) walkDomain(d ast.Domain) {
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

func (b *fpBuilder) walkExpr(x ast.Expr) {
	switch t := x.(type) {
	case *ast.Lit:
	case *ast.DomainExpr:
		b.walkDomain(t.D)
	default:
		b.dynamic(fmt.Sprintf("unanalyzable expression %T", x))
	}
}

func (b *fpBuilder) walkPred(p ast.Pred) {
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

// ---- Per-reference sites ----

// RefSite is one configuration reference in a specification, with the
// full candidate set the executor's resolution order could try for it.
// Unlike the flat Footprint, sites keep their source positions, so
// static analyses (corpus drift, dead references) can report findings
// at the offending reference rather than at the spec.
type RefSite struct {
	Pos        token.Pos
	Pattern    config.Pattern   // the reference as written
	Candidates []config.Pattern // every prefix-expanded form, resolution order
	HasVars    bool             // data-dependent; Candidates omitted
}

// RefSites walks one compiled specification and returns every
// configuration reference it can read, in source order. Macro bodies
// are expanded (bounded by the same depth limit as the footprint walk);
// unanalyzable constructs are simply skipped — RefSites is a
// best-effort view for diagnostics, not a soundness contract.
func RefSites(prog *compiler.Program, spec *compiler.Spec) []RefSite {
	b := &fpBuilder{prog: prog, spec: spec, seen: make(map[string]bool)}
	b.collectComps()
	var sites []RefSite
	add := func(r *ast.Ref) {
		site := RefSite{Pos: r.Pos(), Pattern: r.Pattern, HasVars: r.Pattern.HasVars()}
		if !site.HasVars {
			seen := make(map[string]bool)
			cand := func(p config.Pattern) {
				if ps := p.String(); !seen[ps] {
					seen[ps] = true
					site.Candidates = append(site.Candidates, p)
				}
			}
			for _, comp := range b.comps {
				for _, ns := range spec.Namespaces {
					cand(r.Pattern.Prefixed(ns).Prefixed(comp))
				}
				cand(r.Pattern.Prefixed(comp))
			}
			for _, ns := range spec.Namespaces {
				cand(r.Pattern.Prefixed(ns))
			}
			cand(r.Pattern)
		}
		sites = append(sites, site)
	}
	var depth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.Ref:
			add(t)
		case *ast.MacroRef:
			if m, ok := prog.Macros[t.Name]; ok && depth < macroDepthLimit {
				depth++
				ast.Inspect(m, walk)
				depth--
			}
		}
		return true
	}
	for _, cond := range spec.Conds {
		ast.Inspect(cond.Spec.Domain, walk)
		if cond.Spec.Pred != nil {
			ast.Inspect(cond.Spec.Pred, walk)
		}
	}
	for _, dom := range spec.Domains {
		ast.Inspect(dom, walk)
	}
	if spec.Pred != nil {
		ast.Inspect(spec.Pred, walk)
	}
	return sites
}
