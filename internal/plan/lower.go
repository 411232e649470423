package plan

// Lowering: one walk over each specification's AST that binds everything
// knowable before data arrives — registry lookups, compiled regexes,
// literal arguments, namespace candidate patterns, rendered message
// fragments — into closures. The closures preserve the interpreter's
// semantics exactly, including which errors fire lazily and when: a
// construct the interpreter only rejects at evaluation time (an unknown
// transform inside a never-taken branch, a bad regex over an empty
// domain) is lowered to a closure that errors under precisely the same
// runtime conditions.

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"sync"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/driver"
	"confvalley/internal/predicate"
	"confvalley/internal/transform"
	"confvalley/internal/value"
	"confvalley/internal/vtype"
)

// Lower compiles a program into an executable plan. It never fails;
// see the package comment for how evaluation-time errors are preserved.
func Lower(prog *compiler.Program) *Plan {
	p := &Plan{
		Program:         prog,
		StopOnViolation: prog.Policies["on_violation"] == "stop",
	}
	lw := &lowerer{prog: prog}
	p.Specs = make([]*SpecNode, len(prog.Specs))
	for i, spec := range prog.Specs {
		p.Specs[i] = lw.lowerSpec(spec, i)
	}
	p.Projection = projection(p)
	return p
}

// projection is the class filter a full run of p may load its data
// through (DESIGN.md §5, "Projected ingest"): the union of every spec's
// footprint, or nil when some read is unbounded — a Dynamic spec — or
// the program loads data of its own, which lands in the same store.
func projection(p *Plan) *driver.Projection {
	if len(p.Program.Loads) > 0 {
		return nil
	}
	var pats []config.Pattern
	for _, n := range p.Specs {
		if n.fp.Dynamic {
			return nil
		}
		pats = append(pats, n.fp.Patterns...)
	}
	return driver.NewProjection(pats)
}

// lowerer carries the compile-time context of the walk.
type lowerer struct {
	prog *compiler.Program
	spec *compiler.Spec // spec being lowered; its namespaces scope refs

	// comps are the compartments of the spec's domains — every compartment
	// a reference of this spec can be resolved under — and refs its
	// lowered references by notation, so one reference written twice (a
	// compartment's grouping reference and the domain itself, a bound and
	// the domain it bounds) is one node, resolved and partitioned once.
	comps []*config.Pattern
	refs  map[string]*refNode
}

func (lw *lowerer) lowerSpec(spec *compiler.Spec, seq int) *SpecNode {
	lw.spec = spec
	lw.comps, lw.refs = nil, make(map[string]*refNode)
	n := &SpecNode{Spec: spec, Seq: seq}
	// Compartments first: lowering a static reference pre-builds its
	// candidates under each of them.
	n.domains = make([]domainEval, len(spec.Domains))
	inners := make([]ast.Domain, len(spec.Domains))
	for i, dom := range spec.Domains {
		n.domains[i].comp, inners[i] = liftCompartment(spec, dom)
		if n.domains[i].comp != nil {
			lw.comps = append(lw.comps, n.domains[i].comp)
		}
	}
	n.conds = make([]condNode, len(spec.Conds))
	for i, cond := range spec.Conds {
		n.conds[i] = condNode{
			bindVar: cond.BindVar,
			negate:  cond.Negate,
			quant:   cond.Spec.Quant,
			domain:  lw.lowerDomain(cond.Spec.Domain),
			pred:    lw.lowerPred(cond.Spec.Pred),
		}
	}
	for i := range n.domains {
		de := &n.domains[i]
		de.resolve = lw.lowerDomain(inners[i])
		if de.comp != nil {
			if base := BaseRef(inners[i]); base != nil {
				de.groupRef = lw.lowerRef(base.Pattern)
			}
		}
	}
	n.pred = lw.lowerPred(spec.Pred)
	n.fp = extractFootprint(lw.prog, spec)
	return n
}

// liftCompartment lifts an inline compartment ahead of the domain (the
// #[Scope] $X# and #[Scope] $X# -> transform forms) and returns the
// combined compartment with what remains of the domain. The compartment
// itself stays dynamic state on Ctx: domain aggregation can attach
// differently-compartmented domains to one shared predicate, so the
// reference lowering cannot bake a single one in.
func liftCompartment(spec *compiler.Spec, dom ast.Domain) (comp *config.Pattern, inner ast.Domain) {
	comp, inner = spec.Compartment, dom
	lift := func(cd *ast.CompartmentDomain) {
		p := cd.Scope
		if comp != nil {
			p = cd.Scope.Prefixed(*comp)
		}
		comp = &p
	}
	switch t := dom.(type) {
	case *ast.CompartmentDomain:
		lift(t)
		inner = t.Inner
	case *ast.Pipe:
		// The compartment heads the pipeline; grouping applies to the
		// whole chain.
		if cd, ok := t.Src.(*ast.CompartmentDomain); ok {
			lift(cd)
			inner = &ast.Pipe{Src: cd.Inner, Steps: t.Steps}
		}
	}
	return comp, inner
}

// ---- Domains ----

func (lw *lowerer) lowerDomain(d ast.Domain) domainFn {
	switch t := d.(type) {
	case *ast.Ref:
		rn := lw.lowerRef(t.Pattern)
		return func(c *Ctx) ([]value.V, error) {
			ins, err := rn.resolveInstances(c)
			if err != nil {
				return nil, err
			}
			out := c.values(len(ins))
			for i, in := range ins {
				out[i] = value.FromInstance(in)
			}
			return out, nil
		}
	case *ast.PipeVar:
		return func(c *Ctx) ([]value.V, error) {
			if c.cur == nil {
				return nil, fmt.Errorf("$_ used outside a pipeline")
			}
			return []value.V{*c.cur}, nil
		}
	case *ast.Pipe:
		src := lw.lowerDomain(t.Src)
		steps := make([]stepFn, len(t.Steps))
		for i, s := range t.Steps {
			steps[i] = lw.lowerStep(s)
		}
		return func(c *Ctx) ([]value.V, error) {
			elems, err := src(c)
			if err != nil {
				return nil, err
			}
			for _, st := range steps {
				elems, err = st(c, elems)
				if err != nil {
					return nil, err
				}
			}
			return elems, nil
		}
	case *ast.BinaryDomain:
		l := lw.lowerDomain(t.L)
		r := lw.lowerDomain(t.R)
		op := t.Op.String()
		return func(c *Ctx) ([]value.V, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			return combineVals(c, op, lv, rv)
		}
	case *ast.CompartmentDomain:
		return errDomain(fmt.Errorf("nested compartment domains are not supported; put the compartment at the start of the statement"))
	}
	return errDomain(fmt.Errorf("unsupported domain %T", d))
}

// refNode is a lowered configuration reference. When the pattern has no
// variables its candidate queries (§4.2.2 resolution order) are pre-built
// for every compartment of the spec, cache keys included, so resolving it
// allocates no pattern and renders no key; a reference with variables
// builds its candidates per substituted pattern.
type refNode struct {
	pat        config.Pattern
	hasVars    bool
	namespaces []config.Pattern
	static     map[*config.Pattern][]config.Query // compartment (nil = none) -> candidates; only when !hasVars
}

func (lw *lowerer) lowerRef(pat config.Pattern) *refNode {
	id := pat.String()
	if r, ok := lw.refs[id]; ok {
		return r
	}
	r := &refNode{pat: pat, hasVars: pat.HasVars(), namespaces: lw.spec.Namespaces}
	if !r.hasVars {
		r.static = make(map[*config.Pattern][]config.Query, len(lw.comps)+1)
		r.static[nil] = r.candidates(pat, nil)
		for _, comp := range lw.comps {
			r.static[comp] = r.candidates(pat, comp)
		}
	}
	lw.refs[id] = r
	return r
}

// candidates lists the queries a (substituted) reference is tried as, in
// resolution order: compartment+namespace, compartment, namespaces, bare.
// The first len(namespaces)+1 are the in-compartment ones when comp is
// set.
func (r *refNode) candidates(sub config.Pattern, comp *config.Pattern) []config.Query {
	out := make([]config.Query, 0, 2*len(r.namespaces)+2)
	if comp != nil {
		for _, ns := range r.namespaces {
			out = append(out, config.NewQuery(sub.Prefixed(ns).Prefixed(*comp)))
		}
		out = append(out, config.NewQuery(sub.Prefixed(*comp)))
	}
	for _, ns := range r.namespaces {
		out = append(out, config.NewQuery(sub.Prefixed(ns)))
	}
	return append(out, config.NewQuery(sub))
}

// refKey identifies one resolution within a spec run: the reference, the
// compartment in effect, and — for a reference with variables — the
// substituted notation.
type refKey struct {
	ref  *refNode
	comp *config.Pattern
	sub  string
}

// resolution is a reference resolved under one compartment: the
// instances of the first candidate that matched anything in the store,
// and whether that candidate was an in-compartment one. Candidate
// selection is decided on the whole store, never per compartment
// instance: a candidate that matches anywhere wins even for a group it is
// empty in. ins is a borrowed discovery view — read-only.
type resolution struct {
	ins    []*config.Instance
	inComp bool
	parts  *partition // ins by compartment instance; built on first use
}

// partition groups the resolved instances by compartment instance — the
// rendering of their first n key segments, numbered run-wide — once per
// resolution. n is fixed by the compartment in the resolution's key.
func (res *resolution) partition(rt *Runtime, n int) *partition {
	if res.parts == nil {
		res.parts = rt.groups.partition(res.ins, n)
	}
	return res.parts
}

// groupNumbers numbers a run's compartment instances: one table per
// compartment depth n, keyed by the rendering of the first n key segments
// (Key.PrefixString(n)). The rendering, not the segment structure, is the
// group identity, so a segment named "A::b" and a segment "A" with
// instance "b" share a number, exactly as in the interpreter, which
// compares renderings. Every partition at one depth draws from the same
// table, so a compartment's grouping reference and each reference
// resolved under it agree on what a number names. A rendering costs one
// string per run, not one per partition; the lock is taken once per
// partition build, and a group lookup reads its partition alone.
type groupNumbers struct {
	mu      sync.Mutex
	byDepth []map[string]int32
}

// partition groups ins by compartment instance at depth n, numbering the
// renderings the table has not seen yet.
func (t *groupNumbers) partition(ins []*config.Instance, n int) *partition {
	p := &partition{}
	if len(ins) == 0 {
		return p
	}
	of := make([]int32, len(ins)) // group number of each instance
	var scratch [192]byte         // a longer prefix spills to the heap
	t.mu.Lock()
	for len(t.byDepth) <= n {
		t.byDepth = append(t.byDepth, nil)
	}
	tab := t.byDepth[n]
	if tab == nil {
		tab = make(map[string]int32)
		t.byDepth[n] = tab
	}
	for i, in := range ins {
		id := appendPrefix(scratch[:0], in.Key, n)
		g, ok := tab[string(id)]
		if !ok {
			g = int32(len(tab))
			tab[string(id)] = g
		}
		of[i] = g
	}
	t.mu.Unlock()
	// A counting sort by number over the span the partition holds,
	// [lo, hi]: other references' groups at this depth may lie outside
	// it. starts first counts each group's members, then (negated) marks
	// the groups already placed in order, then holds the running end of
	// each group, which the backwards fill moves down to its start.
	lo, hi := of[0], of[0]
	for _, g := range of {
		lo, hi = min(lo, g), max(hi, g)
	}
	p.lo, p.starts = lo, make([]int32, hi-lo+1)
	groups := 0
	for _, g := range of {
		if p.starts[g-lo]++; p.starts[g-lo] == 1 {
			groups++
		}
	}
	p.order = make([]int32, 0, groups)
	for _, g := range of {
		if s := &p.starts[g-lo]; *s > 0 {
			p.order = append(p.order, g)
			*s = -*s
		}
	}
	end := int32(0)
	for j, s := range p.starts {
		end -= s
		p.starts[j] = end
	}
	p.members = make([]*config.Instance, len(ins))
	for i := len(ins) - 1; i >= 0; i-- {
		j := of[i] - lo
		p.starts[j]--
		p.members[p.starts[j]] = ins[i]
	}
	return p
}

// partition is a resolution's instances grouped by compartment instance:
// order lists the run-wide group numbers in first-appearance order, and
// members holds the instances grouped by number, each group in its
// original order, group g from starts[g-lo] up to the next group's start.
type partition struct {
	order   []int32
	lo      int32
	starts  []int32
	members []*config.Instance
}

// group returns the instances of group g, nil for a number the partition
// does not hold. The slice is shared and clipped: callers must not write
// to it.
func (p *partition) group(g int32) []*config.Instance {
	j := int(g - p.lo)
	if j < 0 || j >= len(p.starts) {
		return nil
	}
	start, end := int(p.starts[j]), len(p.members)
	if j+1 < len(p.starts) {
		end = int(p.starts[j+1])
	}
	if start == end {
		return nil
	}
	return p.members[start:end:end]
}

// resolve resolves the reference under the current compartment:
// substitute variables, then try the candidates in resolution order and
// keep the first non-empty result. The outcome is memoised for the spec
// run, so a compartment's groups share one resolution.
func (r *refNode) resolve(c *Ctx) (*resolution, error) {
	key := refKey{ref: r, comp: c.compPattern}
	sub := r.pat
	if r.hasVars {
		sub = r.pat.Substitute(func(name string) (string, bool) {
			if name == "_" && c.cur != nil && !c.cur.IsList() {
				return c.cur.Raw, true
			}
			v, ok := c.env[name]
			return v, ok
		})
		if sub.HasVars() {
			return nil, fmt.Errorf("unbound variable(s) %v in %s", sub.Vars(), r.pat)
		}
		key.sub = sub.String()
	}
	if res, ok := c.refs[key]; ok {
		return res, nil
	}
	cands := r.static[c.compPattern]
	if r.hasVars {
		cands = r.candidates(sub, c.compPattern)
	}
	res := &resolution{}
	for i, q := range cands {
		if ins := c.discover(q); len(ins) > 0 {
			res.ins = ins
			res.inComp = c.compPattern != nil && i <= len(r.namespaces)
			break
		}
	}
	if c.refs == nil {
		c.refs = make(map[refKey]*resolution)
	}
	c.refs[key] = res
	return res, nil
}

// resolveInstances returns the reference's instances for the current
// compartment group. Grouping applies only when the reference resolved
// under the compartment prefix; a group the reference has no instance in
// gets none (the compartment instance is skipped, §4.2.2).
func (r *refNode) resolveInstances(c *Ctx) ([]*config.Instance, error) {
	res, err := r.resolve(c)
	if err != nil {
		return nil, err
	}
	if res.inComp && c.group >= 0 {
		return res.partition(c.rt, len(c.compPattern.Segs)).group(c.group), nil
	}
	return res.ins, nil
}

// combineVals applies an arithmetic operator across two element sets:
// zipped when inside a compartment group with equal cardinality,
// Cartesian otherwise (§4.2.1).
func combineVals(c *Ctx, op string, l, r []value.V) ([]value.V, error) {
	var out []value.V
	if c.group >= 0 && len(l) == len(r) {
		for i := range l {
			v, err := transform.Arith(op, l[i], r[i])
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	for _, a := range l {
		for _, b := range r {
			v, err := transform.Arith(op, a, b)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// ---- Pipeline steps ----

func (lw *lowerer) lowerStep(step *ast.Step) stepFn {
	body := lw.lowerTransform(step.T)
	if step.Guard == nil {
		return body
	}
	guard := lw.lowerPred(step.Guard)
	return func(c *Ctx, elems []value.V) ([]value.V, error) {
		outs, err := guard(c, elems)
		if err != nil {
			return nil, err
		}
		var kept []value.V
		for i, o := range outs {
			if o.pass {
				kept = append(kept, elems[i])
			}
		}
		return body(c, kept)
	}
}

func (lw *lowerer) lowerTransform(t *ast.Transform) stepFn {
	switch t.Name {
	case "foreach":
		if len(t.Args) != 1 {
			return errStep(fmt.Errorf("foreach expects one domain argument"))
		}
		de, ok := t.Args[0].(*ast.DomainExpr)
		if !ok {
			return errStep(fmt.Errorf("foreach argument must be a domain"))
		}
		dom := lw.lowerDomain(de.D)
		return func(c *Ctx, elems []value.V) ([]value.V, error) {
			var out []value.V
			saved := c.cur
			for i := range elems {
				c.cur = &elems[i]
				vs, err := dom(c)
				if err != nil {
					c.cur = saved
					return nil, err
				}
				out = append(out, vs...)
			}
			c.cur = saved
			return out, nil
		}
	case "tuple":
		argFns := lw.lowerExprs(t.Args)
		return func(c *Ctx, elems []value.V) ([]value.V, error) {
			var out []value.V
			saved := c.cur
			for i := range elems {
				c.cur = &elems[i]
				members := make([]value.V, 0, len(argFns))
				for _, af := range argFns {
					vs, err := af(c)
					if err != nil {
						c.cur = saved
						return nil, err
					}
					if len(vs) != 1 {
						c.cur = saved
						return nil, fmt.Errorf("tuple member resolved to %d values; expected exactly one", len(vs))
					}
					members = append(members, vs[0])
				}
				out = append(out, value.ListOf(members))
			}
			c.cur = saved
			return out, nil
		}
	}
	// Registry transform: looked up once here; a miss retries at run time
	// so transforms registered after lowering still resolve, and a miss
	// then reports the interpreter's error.
	f, _ := transform.Lookup(t.Name)
	name := t.Name
	argsF := lw.lowerArgs(t.Args)
	return func(c *Ctx, elems []value.V) ([]value.V, error) {
		fn := f
		if fn == nil {
			var ok bool
			fn, ok = transform.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown transform %q", name)
			}
		}
		args, err := argsF(c)
		if err != nil {
			return nil, err
		}
		if fn.Style == transform.Reduce {
			v, err := transform.ApplyReduce(fn, args, elems)
			if err != nil {
				return nil, err
			}
			// Keep provenance for violation reporting: a reduced value is
			// blamed on the first contributing instance.
			if v.Inst == nil {
				for _, el := range elems {
					if el.Inst != nil {
						v.Inst = el.Inst
						break
					}
				}
			}
			return []value.V{v}, nil
		}
		out := make([]value.V, 0, len(elems))
		for _, el := range elems {
			// Scalar-input transforms iterate over list members, each
			// member result becoming its own pipeline element (§4.2.3).
			if fn.ScalarInput && el.IsList() {
				for _, member := range el.List {
					v, err := transform.ApplyMap(fn, args, member)
					if err != nil {
						return nil, err
					}
					out = append(out, v)
				}
				continue
			}
			v, err := transform.ApplyMap(fn, args, el)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
}

// ---- Expressions ----

func (lw *lowerer) lowerExpr(x ast.Expr) exprFn {
	switch t := x.(type) {
	case *ast.Lit:
		static := []value.V{value.Scalar(t.Text)}
		return func(*Ctx) ([]value.V, error) { return static, nil }
	case *ast.DomainExpr:
		return exprFn(lw.lowerDomain(t.D))
	}
	return func(*Ctx) ([]value.V, error) {
		return nil, fmt.Errorf("unsupported expression %T", x)
	}
}

func (lw *lowerer) lowerExprs(exprs []ast.Expr) []exprFn {
	out := make([]exprFn, len(exprs))
	for i, x := range exprs {
		out[i] = lw.lowerExpr(x)
	}
	return out
}

// lowerArgs lowers an argument list under the "exactly one value each"
// rule. All-literal argument lists are evaluated once here and served as
// a shared read-only slice.
func (lw *lowerer) lowerArgs(exprs []ast.Expr) func(c *Ctx) ([]value.V, error) {
	allLit := true
	for _, a := range exprs {
		if _, ok := a.(*ast.Lit); !ok {
			allLit = false
			break
		}
	}
	if allLit {
		static := make([]value.V, len(exprs))
		for i, a := range exprs {
			static[i] = value.Scalar(a.(*ast.Lit).Text)
		}
		return func(*Ctx) ([]value.V, error) { return static, nil }
	}
	fns := lw.lowerExprs(exprs)
	return func(c *Ctx) ([]value.V, error) {
		out := make([]value.V, 0, len(fns))
		for _, f := range fns {
			vs, err := f(c)
			if err != nil {
				return nil, err
			}
			if len(vs) != 1 {
				return nil, fmt.Errorf("transform argument resolved to %d values; expected exactly one", len(vs))
			}
			out = append(out, vs[0])
		}
		return out, nil
	}
}

// ---- Predicates ----

func (lw *lowerer) lowerPred(p ast.Pred) predFn {
	switch t := p.(type) {
	case *ast.And:
		l, r := lw.lowerPred(t.L), lw.lowerPred(t.R)
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			lo, err := l(c, elems)
			if err != nil {
				return nil, err
			}
			ro, err := r(c, elems)
			if err != nil {
				return nil, err
			}
			// Merge in place into the left buffer: a passing outcome
			// carries no message, so overwriting it with the right-hand
			// outcome is exact.
			for i := range lo {
				if lo[i].pass {
					lo[i] = ro[i]
				}
			}
			return lo, nil
		}
	case *ast.Or:
		l, r := lw.lowerPred(t.L), lw.lowerPred(t.R)
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			lo, err := l(c, elems)
			if err != nil {
				return nil, err
			}
			ro, err := r(c, elems)
			if err != nil {
				return nil, err
			}
			for i := range lo {
				if lo[i].pass || ro[i].pass {
					lo[i] = outcome{pass: true}
				} else {
					lo[i] = outcome{msg: lo[i].msg + ", and " + ro[i].msg}
				}
			}
			return lo, nil
		}
	case *ast.Not:
		inner := lw.lowerPred(t.X)
		msg := "must not satisfy: " + ast.Render(t.X)
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			outs, err := inner(c, elems)
			if err != nil {
				return nil, err
			}
			for i := range outs {
				if outs[i].pass {
					outs[i] = outcome{msg: msg}
				} else {
					outs[i] = outcome{pass: true}
				}
			}
			return outs, nil
		}
	case *ast.QuantPred:
		inner := lw.lowerPred(t.X)
		q := t.Q
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			saved := c.quant
			c.quant = q
			outs, err := inner(c, elems)
			c.quant = saved
			return outs, err
		}
	case *ast.IfPred:
		condF, thenF := lw.lowerPred(t.Cond), lw.lowerPred(t.Then)
		var elseF predFn
		if t.Else != nil {
			elseF = lw.lowerPred(t.Else)
		}
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			condO, err := condF(c, elems)
			if err != nil {
				return nil, err
			}
			thenO, err := thenF(c, elems)
			if err != nil {
				return nil, err
			}
			var elseO []outcome
			if elseF != nil {
				elseO, err = elseF(c, elems)
				if err != nil {
					return nil, err
				}
			}
			for i := range condO {
				switch {
				case condO[i].pass:
					condO[i] = thenO[i]
				case elseO != nil:
					condO[i] = elseO[i]
				default:
					condO[i] = outcome{pass: true}
				}
			}
			return condO, nil
		}
	case *ast.MacroRef:
		// Macros are immutable after compilation, so inline the body.
		if m, ok := lw.prog.Macros[t.Name]; ok {
			return lw.lowerPred(m)
		}
		return errPred(fmt.Errorf("undefined macro @%s", t.Name))
	case *ast.TypePred:
		ty := t.T
		tyName := ty.String()
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i, v := range elems {
				if predicate.TypeCheck(ty, v) {
					out[i] = outcome{pass: true}
				} else {
					out[i] = outcome{msg: fmt.Sprintf("value %q is not a valid %s", v, tyName)}
				}
			}
			return out, nil
		}
	case *ast.Prim:
		return lowerPrim(t)
	case *ast.Match:
		return lowerMatch(t)
	case *ast.Range:
		return lw.lowerRange(t)
	case *ast.Enum:
		return lw.lowerEnum(t)
	case *ast.Rel:
		return lw.lowerRel(t)
	case *ast.Call:
		return lw.lowerCall(t)
	}
	return errPred(fmt.Errorf("unsupported predicate %T", p))
}

func lowerPrim(t *ast.Prim) predFn {
	switch t.Name {
	case "nonempty":
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i, v := range elems {
				if predicate.Nonempty(v) {
					out[i] = outcome{pass: true}
				} else {
					out[i] = outcome{msg: "value is empty"}
				}
			}
			return out, nil
		}
	case "exists":
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i, v := range elems {
				if predicate.PathExists(c.rt.Env, v) {
					out[i] = outcome{pass: true}
				} else {
					out[i] = outcome{msg: fmt.Sprintf("path %q does not exist", v)}
				}
			}
			return out, nil
		}
	case "reachable":
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i, v := range elems {
				if predicate.Reachable(c.rt.Env, v) {
					out[i] = outcome{pass: true}
				} else {
					out[i] = outcome{msg: fmt.Sprintf("endpoint %q is not reachable", v)}
				}
			}
			return out, nil
		}
	case "unique":
		return aggPred(func(elems, sub []value.V, part []int, out []outcome) {
			for _, j := range predicate.UniqueViolations(sub) {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q duplicates another instance's value", elems[i])}
			}
		})
	case "consistent":
		return aggPred(func(elems, sub []value.V, part []int, out []outcome) {
			viols := predicate.ConsistentViolations(sub)
			if len(viols) == 0 {
				return
			}
			majority := MajorityValue(sub, viols)
			for _, j := range viols {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q is inconsistent with the majority value %q", elems[i], majority)}
			}
		})
	case "ordered":
		return aggPred(func(elems, sub []value.V, part []int, out []outcome) {
			for _, j := range predicate.OrderedViolations(sub) {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q breaks the expected ordering (previous: %q)", elems[i], sub[j-1])}
			}
		})
	}
	return errPred(fmt.Errorf("unknown primitive predicate %q", t.Name))
}

// aggPred runs an aggregate predicate (unique, consistent, ordered) per
// configuration class.
func aggPred(fill func(elems, sub []value.V, part []int, out []outcome)) predFn {
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		out := c.outcomes(len(elems))
		for i := range out {
			out[i] = outcome{pass: true}
		}
		for _, part := range PartitionByClass(elems) {
			fill(elems, Subset(elems, part), part, out)
		}
		return out, nil
	}
}

func lowerMatch(t *ast.Match) predFn {
	pattern := t.Pattern
	if len(pattern) >= 2 && strings.HasPrefix(pattern, "/") && strings.HasSuffix(pattern, "/") {
		re, err := regexp.Compile(pattern[1 : len(pattern)-1])
		if err != nil {
			// The interpreter reports a bad regex only when elements are
			// matched, with every element failing; reproduce that.
			matchErr := fmt.Errorf("match: bad regular expression %q: %v", pattern, err)
			return func(c *Ctx, elems []value.V) ([]outcome, error) {
				out := c.outcomes(len(elems))
				for i, v := range elems {
					out[i] = outcome{msg: fmt.Sprintf("value %q does not match '%s'", v, pattern)}
				}
				if len(elems) == 0 {
					return out, nil
				}
				return out, matchErr
			}
		}
		return matchPred(pattern, re.MatchString)
	}
	if strings.Contains(pattern, "*") {
		return matchPred(pattern, func(raw string) bool { return config.Glob(pattern, raw) })
	}
	return matchPred(pattern, func(raw string) bool { return strings.Contains(raw, pattern) })
}

func matchPred(pattern string, f func(string) bool) predFn {
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		out := c.outcomes(len(elems))
		for i, v := range elems {
			if matchValue(v, f) {
				out[i] = outcome{pass: true}
			} else {
				out[i] = outcome{msg: fmt.Sprintf("value %q does not match '%s'", v, pattern)}
			}
		}
		return out, nil
	}
}

// matchValue applies the compiled matcher; a list matches when any member
// does, recursively, mirroring predicate.MatchPattern.
func matchValue(v value.V, f func(string) bool) bool {
	if v.IsList() {
		for _, e := range v.List {
			if matchValue(e, f) {
				return true
			}
		}
		return false
	}
	return f(v.Raw)
}

func (lw *lowerer) lowerRange(t *ast.Range) predFn {
	loLit, loIsLit := t.Lo.(*ast.Lit)
	hiLit, hiIsLit := t.Hi.(*ast.Lit)
	if loIsLit && hiIsLit {
		pairs := bindPairs(PairBounds(
			[]value.V{value.Scalar(loLit.Text)},
			[]value.V{value.Scalar(hiLit.Text)},
		))
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i := range elems {
				out[i] = rangeOutcome(c, pairs, elems[i])
			}
			return out, nil
		}
	}
	loF, hiF := lw.lowerExpr(t.Lo), lw.lowerExpr(t.Hi)
	evalPairs := func(c *Ctx) ([]boundPair, error) {
		los, err := loF(c)
		if err != nil {
			return nil, err
		}
		his, err := hiF(c)
		if err != nil {
			return nil, err
		}
		return bindPairs(PairBounds(los, his)), nil
	}
	if !deepUsesCur(t.Lo) && !deepUsesCur(t.Hi) {
		// Bounds independent of the current element: evaluate once per
		// call. Guarded on non-empty input because the interpreter only
		// evaluates bounds inside the element loop.
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			if len(elems) == 0 {
				return out, nil
			}
			pairs, err := evalPairs(c)
			if err != nil {
				return nil, err
			}
			for i := range elems {
				out[i] = rangeOutcome(c, pairs, elems[i])
			}
			return out, nil
		}
	}
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		out := c.outcomes(len(elems))
		saved := c.cur
		for i := range elems {
			c.cur = &elems[i]
			pairs, err := evalPairs(c)
			if err != nil {
				c.cur = saved
				return nil, err
			}
			out[i] = rangeOutcome(c, pairs, elems[i])
		}
		c.cur = saved
		return out, nil
	}
}

// boundPair is a range bound pair with both bounds' typed
// interpretations parsed once, so per-element checks parse only the
// element (predicate.InRange re-parses the bounds on every call).
type boundPair struct {
	lo, hi value.V
	cl, ch vtype.Classified
	scalar bool // both bounds scalar: the pre-parsed fast path applies
}

func bindPairs(pairs [][2]value.V) []boundPair {
	out := make([]boundPair, len(pairs))
	for i, pr := range pairs {
		out[i] = boundPair{lo: pr[0], hi: pr[1]}
		if !pr[0].IsList() && !pr[1].IsList() {
			out[i].cl = vtype.Classify(pr[0].Raw)
			out[i].ch = vtype.Classify(pr[1].Raw)
			out[i].scalar = true
		}
	}
	return out
}

// ordWith mirrors predicate.Orderable(a, cl.Raw) with cl's side already
// parsed. The sign is cmp(a, cl.Raw).
func ordWith(cl *vtype.Classified, a string) (int, bool) {
	c, typed := cl.Compare(a)
	if typed {
		return c, true
	}
	if cl.Stringish && vtype.Detect(a).IsString() && strings.TrimSpace(a) != "" {
		return c, true
	}
	return c, false
}

// inRange matches predicate.InRange(p.lo, p.hi, v) exactly.
func (p *boundPair) inRange(v value.V) bool {
	if !p.scalar || v.IsList() {
		return predicate.InRange(p.lo, p.hi, v)
	}
	lc, lok := ordWith(&p.cl, v.Raw) // cmp(v, lo)
	hc, hok := ordWith(&p.ch, v.Raw) // cmp(v, hi)
	if !lok || !hok {
		return true // incomparable: not this check's concern
	}
	return lc >= 0 && hc <= 0
}

func rangeOutcome(c *Ctx, pairs []boundPair, v value.V) outcome {
	if len(pairs) == 0 {
		return outcome{msg: "range bounds resolved to no values"}
	}
	matches := 0
	for i := range pairs {
		if pairs[i].inRange(v) {
			matches++
		}
	}
	if QuantHolds(c.quant, matches, len(pairs)) {
		return outcome{pass: true}
	}
	msg := fmt.Sprintf("value %q is out of range [%s, %s]", v, pairs[0].lo, pairs[0].hi)
	if len(pairs) > 1 {
		msg = fmt.Sprintf("value %q is not within the required %d candidate range(s)", v, len(pairs))
	}
	return outcome{msg: msg}
}

func (lw *lowerer) lowerEnum(t *ast.Enum) predFn {
	allLit := true
	for _, el := range t.Elems {
		if _, ok := el.(*ast.Lit); !ok {
			allLit = false
			break
		}
	}
	if allLit {
		members := make([]value.V, len(t.Elems))
		for i, el := range t.Elems {
			members[i] = value.Scalar(el.(*ast.Lit).Text)
		}
		bound := bindEnum(members)
		rendered := RenderMembers(members)
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i := range elems {
				if bound.contains(elems[i]) {
					out[i] = outcome{pass: true}
				} else {
					out[i] = outcome{msg: fmt.Sprintf("value %q is not one of %s", elems[i], rendered)}
				}
			}
			return out, nil
		}
	}
	// The member-set union decision mirrors the interpreter: per-element
	// evaluation only when a member references $_ directly.
	needPerElement := false
	for _, el := range t.Elems {
		if ExprUsesCur(el) {
			needPerElement = true
			break
		}
	}
	fns := lw.lowerExprs(t.Elems)
	evalMembers := func(c *Ctx) ([]value.V, error) {
		var ms []value.V
		for _, f := range fns {
			vs, err := f(c)
			if err != nil {
				return nil, err
			}
			ms = append(ms, vs...)
		}
		return ms, nil
	}
	if !needPerElement {
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			// Members evaluate before the element loop — even over an
			// empty element set — exactly like the interpreter.
			members, err := evalMembers(c)
			if err != nil {
				return nil, err
			}
			bound := bindEnum(members)
			out := c.outcomes(len(elems))
			for i := range elems {
				if bound.contains(elems[i]) {
					out[i] = outcome{pass: true}
				} else {
					out[i] = outcome{msg: fmt.Sprintf("value %q is not one of %s", elems[i], RenderMembers(members))}
				}
			}
			return out, nil
		}
	}
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		out := c.outcomes(len(elems))
		saved := c.cur
		for i := range elems {
			c.cur = &elems[i]
			ms, err := evalMembers(c)
			if err != nil {
				c.cur = saved
				return nil, err
			}
			if predicate.InEnum(ms, elems[i]) {
				out[i] = outcome{pass: true}
			} else {
				out[i] = outcome{msg: fmt.Sprintf("value %q is not one of %s", elems[i], RenderMembers(ms))}
			}
		}
		c.cur = saved
		return out, nil
	}
}

// boundEnum is an enumeration member set with each scalar member's typed
// interpretations parsed once; list members fall back to value.Equal.
type boundEnum struct {
	members []value.V
	eqs     []func(value.V) (bool, error)
}

func bindEnum(members []value.V) boundEnum {
	e := boundEnum{members: members, eqs: make([]func(value.V) (bool, error), len(members))}
	for i, m := range members {
		e.eqs[i] = predicate.RelTo("==", m)
	}
	return e
}

// contains matches predicate.InEnum(e.members, v) exactly.
func (e *boundEnum) contains(v value.V) bool {
	for i, m := range e.members {
		if f := e.eqs[i]; f != nil {
			if ok, _ := f(v); ok {
				return true
			}
		} else if value.Equal(m, v) {
			return true
		}
	}
	return false
}

// boundRHS is a relation's resolved right-hand side with a comparator
// specialized per value (predicate.RelTo); a nil comparator entry means
// that value takes the generic predicate.Rel path.
type boundRHS struct {
	vals   []value.V
	checks []func(value.V) (bool, error)
}

func bindRHS(op string, vals []value.V) boundRHS {
	b := boundRHS{vals: vals, checks: make([]func(value.V) (bool, error), len(vals))}
	for i, r := range vals {
		b.checks[i] = predicate.RelTo(op, r)
	}
	return b
}

func (lw *lowerer) lowerRel(t *ast.Rel) predFn {
	op := t.Op.String()
	if lit, ok := t.Rhs.(*ast.Lit); ok {
		rhs := bindRHS(op, []value.V{value.Scalar(lit.Text)})
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			for i := range elems {
				o, err := relOutcome(c, op, rhs, elems[i])
				if err != nil {
					return nil, err
				}
				out[i] = o
			}
			return out, nil
		}
	}
	rhsF := lw.lowerExpr(t.Rhs)
	if !deepUsesCur(t.Rhs) {
		return func(c *Ctx, elems []value.V) ([]outcome, error) {
			out := c.outcomes(len(elems))
			if len(elems) == 0 {
				return out, nil
			}
			vals, err := rhsF(c)
			if err != nil {
				return nil, err
			}
			rhs := bindRHS(op, vals)
			for i := range elems {
				o, err := relOutcome(c, op, rhs, elems[i])
				if err != nil {
					return nil, err
				}
				out[i] = o
			}
			return out, nil
		}
	}
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		out := c.outcomes(len(elems))
		saved := c.cur
		for i := range elems {
			c.cur = &elems[i]
			vals, err := rhsF(c)
			if err != nil {
				c.cur = saved
				return nil, err
			}
			o, err := relOutcome(c, op, boundRHS{vals: vals, checks: make([]func(value.V) (bool, error), len(vals))}, elems[i])
			if err != nil {
				c.cur = saved
				return nil, err
			}
			out[i] = o
		}
		c.cur = saved
		return out, nil
	}
}

func relOutcome(c *Ctx, op string, rhs boundRHS, v value.V) (outcome, error) {
	if len(rhs.vals) == 0 {
		return outcome{msg: fmt.Sprintf("relation %s: right-hand side resolved to no values", op)}, nil
	}
	matches := 0
	for i, r := range rhs.vals {
		var ok bool
		var err error
		if f := rhs.checks[i]; f != nil {
			ok, err = f(v)
		} else {
			ok, err = predicate.Rel(op, v, r)
		}
		if err != nil {
			return outcome{}, err
		}
		if ok {
			matches++
		}
	}
	if QuantHolds(c.quant, matches, len(rhs.vals)) {
		return outcome{pass: true}, nil
	}
	msg := fmt.Sprintf("value %q violates '%s %s'", v, op, rhs.vals[0])
	if len(rhs.vals) > 1 {
		msg = fmt.Sprintf("value %q violates '%s' against %d candidate value(s)", v, op, len(rhs.vals))
	}
	return outcome{msg: msg}, nil
}

func (lw *lowerer) lowerCall(t *ast.Call) predFn {
	if t.Name == "__domain_lhs" {
		return errPred(fmt.Errorf("domain-to-domain relations are only supported at statement level ($A <= $B)"))
	}
	f, _ := predicate.Lookup(t.Name)
	name := t.Name
	argsF := lw.lowerArgs(t.Args)
	callText := ast.Render(t)
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		fn := f
		if fn == nil {
			var ok bool
			fn, ok = predicate.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown predicate %q", name)
			}
		}
		// Arguments evaluate before the element loop — even over an empty
		// element set — exactly like the interpreter.
		args, err := argsF(c)
		if err != nil {
			return nil, err
		}
		out := c.outcomes(len(elems))
		for i, v := range elems {
			ok, err := fn.Check(c.rt.Env, args, v)
			if err != nil {
				return nil, err
			}
			if ok {
				out[i] = outcome{pass: true}
			} else {
				out[i] = outcome{msg: fmt.Sprintf("value %q fails %s", v, callText)}
			}
		}
		return out, nil
	}
}

// ---- Lazy-error closures and $_ dependence analysis ----

func errPred(err error) predFn {
	return func(*Ctx, []value.V) ([]outcome, error) { return nil, err }
}

func errDomain(err error) domainFn {
	return func(*Ctx) ([]value.V, error) { return nil, err }
}

func errStep(err error) stepFn {
	return func(*Ctx, []value.V) ([]value.V, error) { return nil, err }
}

// deepUsesCur decides whether hoisting an expression out of a per-element
// loop is sound. Unlike ExprUsesCur (which mirrors the interpreter's
// shallow check and therefore its semantics), this walk descends into
// pipeline step guards and arguments and answers conservatively: $_, a
// macro reference and any node it does not know count as depending on
// $_.
func deepUsesCur(x ast.Expr) bool {
	uses := false
	ast.Inspect(x, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.Ref:
			uses = slices.Contains(t.Pattern.Vars(), "_")
		case *ast.Lit, *ast.DomainExpr, *ast.Pipe, *ast.BinaryDomain, *ast.CompartmentDomain,
			*ast.And, *ast.Or, *ast.Not, *ast.QuantPred, *ast.IfPred,
			*ast.TypePred, *ast.Prim, *ast.Match, *ast.Range, *ast.Enum, *ast.Rel, *ast.Call:
		default:
			uses = true
		}
		return !uses
	})
	return uses
}
