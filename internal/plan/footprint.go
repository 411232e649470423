package plan

// Footprint extraction: one walk over the spec (walkRefs, which RefSites
// shares) that collects every discovery pattern a specification can ever
// hand to the store — domain references, condition domains,
// predicate-embedded domains (range bounds, enum members, relation
// right-hand sides, call and transform arguments, step guards) —
// expanded across all namespace and compartment prefixes the runtime
// resolution order could try. A spec whose reads cannot be bounded
// statically is marked Dynamic.
//
// Two things rest on footprints being sound, and a missed read breaks
// each silently:
//
//   - every full run of a program with no Dynamic spec and no load
//     commands: its data is loaded through the union of the footprints
//     (Plan.Projection), so a class no footprint names is never built and
//     a read the walk missed finds nothing;
//   - every incremental run: a spec re-runs only when a changed key
//     matches a pattern of its footprint, and a Dynamic spec re-runs
//     every round.
//
// The read-set oracle (readset_test.go) checks them against what the
// executor reads: every instance a non-Dynamic spec's queries return
// must match its footprint and be kept by the projection, over the
// shipped suites and FuzzFootprint's programs.
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
	spec  *compiler.Spec
	comps []config.Pattern // every compartment context a ref may resolve under
	seen  map[string]bool
	fp    Footprint
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
	b := &fpBuilder{spec: spec, comps: specComps(spec), seen: make(map[string]bool)}
	walkRefs(prog, spec, b.addRef, b.dynamic)
	if b.fp.Dynamic {
		b.fp.Patterns = nil
	}
	return b.fp
}

// specComps gathers the compartment patterns any reference in the spec
// may be resolved under: the spec-level compartment plus each
// inline-lifted one, mirroring lowerDomainEval.
func specComps(spec *compiler.Spec) []config.Pattern {
	var comps []config.Pattern
	add := func(p *config.Pattern) {
		if p == nil {
			return
		}
		for _, have := range comps {
			if have.String() == p.String() {
				return
			}
		}
		comps = append(comps, *p)
	}
	add(spec.Compartment)
	for _, dom := range spec.Domains {
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
		if spec.Compartment != nil {
			p = cd.Scope.Prefixed(*spec.Compartment)
		}
		add(&p)
	}
	return comps
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
func (b *fpBuilder) addRef(r *ast.Ref) {
	pat := r.Pattern
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

// walkRefs calls ref on every configuration reference the spec can
// read — its conditions' domains and predicates, then its domains and
// predicate — in source order, with macro bodies expanded inline up to
// macroDepthLimit. It calls stuck for what it cannot see through: an
// undefined or too-deep macro, or a node it does not know.
func walkRefs(prog *compiler.Program, spec *compiler.Spec, ref func(*ast.Ref), stuck func(reason string)) {
	depth := 0
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.Ref:
			ref(t)
		case *ast.MacroRef:
			m, ok := prog.Macros[t.Name]
			if !ok || depth >= macroDepthLimit {
				stuck(fmt.Sprintf("macro @%s cannot be expanded statically", t.Name))
				break
			}
			depth++
			ast.Inspect(m, visit)
			depth--
		case *ast.PipeVar, *ast.Pipe, *ast.BinaryDomain, *ast.CompartmentDomain,
			*ast.Lit, *ast.DomainExpr,
			*ast.And, *ast.Or, *ast.Not, *ast.QuantPred, *ast.IfPred,
			*ast.TypePred, *ast.Prim, *ast.Match, *ast.Range, *ast.Enum, *ast.Rel, *ast.Call:
			// $_ reads the current pipeline element, not the store;
			// element- and environment-only predicates read nothing; the
			// rest read only what their children read.
		default:
			stuck(fmt.Sprintf("unanalyzable construct %T", n))
		}
		return true
	}
	for _, cond := range spec.Conds {
		ast.Inspect(cond.Spec.Domain, visit)
		ast.Inspect(cond.Spec.Pred, visit)
	}
	for _, dom := range spec.Domains {
		ast.Inspect(dom, visit)
	}
	ast.Inspect(spec.Pred, visit)
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
// configuration reference it can read, in source order, through the
// footprint's own walk; unanalyzable constructs are simply skipped —
// RefSites is a best-effort view for diagnostics, not a soundness
// contract.
func RefSites(prog *compiler.Program, spec *compiler.Spec) []RefSite {
	comps := specComps(spec)
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
			for _, comp := range comps {
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
	walkRefs(prog, spec, add, func(string) {})
	return sites
}
