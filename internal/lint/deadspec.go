package lint

// The dead-spec analyzer finds specifications that add no checking
// power: exact duplicates, specs fully implied by a stronger spec over
// the same domain, and redundant conjuncts inside one predicate. It
// reuses the optimizer's implication engine (compiler.Implies — the
// machinery behind the Figure 4 rewrite (c) "omit implied constraints")
// read-only, and runs over the UNOPTIMIZED program, where the
// duplicates the optimizer would silently merge are still visible.
//
// Codes:
//
//	CV301 spec is implied by a stronger spec over the same domain
//	CV302 spec is an exact duplicate of an earlier one
//	CV303 conjunct is implied by a sibling conjunct in the same predicate

import (
	"confvalley/internal/compiler"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
)

func init() {
	Register(&Analyzer{
		Name:  "deadspec",
		Doc:   "duplicate, subsumed, or internally redundant specifications",
		Codes: []string{"CV301", "CV302", "CV303"},
		Run:   runDeadSpec,
	})
}

// specAnchor returns the best position to hang a whole-spec diagnostic
// on: the predicate, falling back to the first domain.
func specAnchor(s *compiler.Spec) token.Pos {
	if s.Pred != nil {
		return s.Pred.Pos()
	}
	if len(s.Domains) > 0 {
		return s.Domains[0].Pos()
	}
	return token.Pos{}
}

func runDeadSpec(p *Pass) {
	if p.Prog == nil {
		return
	}
	byDomain := map[string][]*compiler.Spec{}
	for _, s := range p.Prog.Specs {
		k := compiler.ScopeKey(s) + "|" + compiler.DomainsKey(s)
		byDomain[k] = append(byDomain[k], s)
	}
	for _, group := range byDomain {
		for i, s := range group {
			for _, earlier := range group[:i] {
				if s.Text != "" && s.Text == earlier.Text {
					p.Reportf(specAnchor(s), "CV302", Warning,
						"duplicate specification: identical to an earlier spec over the same domain (%s)",
						compactText(earlier.Text))
					break
				}
				if compiler.Implies(earlier.Pred, s.Pred) {
					p.Suggest(specAnchor(s), "CV301", Warning,
						"delete it, or tighten it beyond what the stronger spec already checks",
						"specification is implied by a stronger spec over the same domain (%s)",
						compactText(earlier.Text))
					break
				}
			}
		}
	}

	// Redundant conjuncts: inside one predicate, a conjunct implied by a
	// sibling never changes the verdict. (p implies p, so compare
	// distinct indices only, and prefer blaming the weaker conjunct.) A
	// repeated conjunct is reported once, against its first occurrence.
	for _, s := range p.Prog.Specs {
		conjuncts := compiler.FlattenAnd(s.Pred)
		texts := make([]string, len(conjuncts))
		for i, c := range conjuncts {
			texts[i] = ast.Render(c)
		}
		for i, weak := range conjuncts {
			for j, strong := range conjuncts {
				if i == j {
					continue
				}
				if texts[i] == texts[j] {
					if i > j {
						p.Reportf(weak.Pos(), "CV303", Warning, "conjunct %s repeats an earlier conjunct", texts[i])
						break
					}
					continue
				}
				if compiler.Implies(strong, weak) && !compiler.Implies(weak, strong) {
					p.Reportf(weak.Pos(), "CV303", Warning,
						"conjunct %s is implied by %s and can be dropped", texts[i], texts[j])
				}
			}
		}
	}
}

// compactText flattens a spec's rendered text to one line for message
// embedding.
func compactText(text string) string {
	out := make([]rune, 0, len(text))
	space := false
	for _, r := range text {
		if r == '\n' || r == '\t' || r == ' ' {
			space = true
			continue
		}
		if space && len(out) > 0 {
			out = append(out, ' ')
		}
		space = false
		out = append(out, r)
	}
	return string(out)
}
