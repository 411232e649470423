// Package refeval is the reference interpreter for CPL: an executable
// definition of the language that walks a program's AST, the oracle the
// plan executor is held to byte for byte, and the pre-§5.2 baseline of
// the discovery ablation. Nothing on the deployment path runs it.
//
// Evaluation semantics, in brief:
//
//   - A specification's domains resolve to element sets via instance
//     discovery, honoring namespace prefix resolution and compartment
//     scoping (§4.2.2).
//   - Inside a compartment, each compartment instance forms an isolated
//     group: predicates over multiple domains pair values within a group
//     rather than over the Cartesian product; aggregate predicates
//     (consistent, unique, ordered) apply per group.
//   - Pipelines apply map- and reduce-style transformations step by step;
//     a guarded step ("if (nonempty) split('-')") drops elements that
//     fail its guard (§4.2.3).
//   - Quantifiers: ∀ (default) reports a violation per failing element;
//     ∃ reports one violation when no element satisfies the predicate;
//     ∃! when the satisfying count is not exactly one.
//   - Error messages are generated from the failing predicate and the
//     offending value (§4.4), overridable per specification via policy.
package refeval

import (
	"context"
	"fmt"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/token"
	"confvalley/internal/plan"
	"confvalley/internal/predicate"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/internal/transform"
	"confvalley/internal/value"
)

// Options tune a reference run.
type Options struct {
	// StopOnFirst ends the run at the first spec with a violation.
	StopOnFirst bool
	// NaiveDiscovery resolves references by Snapshot.DiscoverNaive, the
	// paper's pre-§5.2 scan, instead of the snapshot's indexes.
	NaiveDiscovery bool
}

// interp is one run's snapshot, environment and options.
type interp struct {
	snap *config.Snapshot
	Env  simenv.Env
	Opts Options
}

// Run evaluates prog's specifications in order against snap. A cancelled
// ctx ends the run between specs, returning the completed prefix marked
// Interrupted; stop-on-first (opts, or the program's on_violation 'stop'
// policy) ends it after the first failing spec.
func Run(ctx context.Context, snap *config.Snapshot, prog *compiler.Program, env simenv.Env, opts Options) *report.Report {
	start := time.Now()
	if prog.Policies["on_violation"] == "stop" {
		opts.StopOnFirst = true
	}
	e := &interp{snap: snap, Env: env, Opts: opts}
	rep := &report.Report{}
	for j, spec := range prog.Specs {
		if ctx.Err() != nil {
			rep.Interrupted = true
			break
		}
		e.runSpec(prog, spec, j, rep)
		if rep.Stopped {
			break
		}
	}
	rep.Duration = time.Since(start)
	return rep
}

// evalCtx carries the evaluation state for one specification.
type evalCtx struct {
	prog  *compiler.Program
	spec  *compiler.Spec
	seq   int               // spec position in execution order, for violation tagging
	env   map[string]string // variable bindings ($CloudName, $_ handled separately)
	group string            // current compartment instance prefix; "" = none
	glen  int               // compartment prefix segment count
	quant ast.Quant         // quantifier hint for Range/Rel/Enum candidates
	cur   *value.V          // current element for $_ and per-element exprs

	// compPattern is the combined compartment pattern in effect, used to
	// prefix references resolved inside the compartment.
	compPattern *config.Pattern
}

func (c *evalCtx) clone() *evalCtx {
	d := *c
	return &d
}

// runSpec evaluates one specification, appending violations to rep. A
// panic under the spec — a plug-in predicate or transformation blowing
// up — is contained to a spec-level error with the spec's partial
// violations rolled back, mirroring the plan executor's containment so
// the two paths stay report-identical.
func (e *interp) runSpec(prog *compiler.Program, spec *compiler.Spec, seq int, rep *report.Report) {
	rep.SpecsRun++
	ctx := &evalCtx{prog: prog, spec: spec, seq: seq, env: map[string]string{}, quant: ast.QuantAll}
	before := len(rep.Violations)
	instBefore := rep.InstancesChecked
	panicked := false
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return e.runConds(ctx, spec, 0, rep)
	}()
	if err != nil {
		if panicked {
			rep.Violations = rep.Violations[:before]
			rep.InstancesChecked = instBefore
		}
		rep.AddSpecError(fmt.Sprintf("%s: %v", spec.Text, err))
		rep.CloseSection(seq, report.SpecOutcome{Instances: rep.InstancesChecked - instBefore, Errored: true})
		return
	}
	failed := len(rep.Violations) > before
	if failed {
		rep.SpecsFailed++
		if e.Opts.StopOnFirst {
			rep.Stopped = true
		}
	}
	rep.CloseSection(seq, report.SpecOutcome{Instances: rep.InstancesChecked - instBefore, Failed: failed})
}

// runConds applies the spec's variable-binding guards left to right, then
// evaluates the body. Plain (non-binding) guards are deferred to
// evalElements so that, inside a compartment, they are re-evaluated per
// compartment instance ("proxy endpoints should be HTTPS if the SSL
// option is enabled" pairs each proxy's SSL flag with its own endpoint).
func (e *interp) runConds(ctx *evalCtx, spec *compiler.Spec, idx int, rep *report.Report) error {
	if idx == len(spec.Conds) {
		return e.runBody(ctx, spec, rep)
	}
	cond := spec.Conds[idx]
	if cond.BindVar == "" {
		return e.runConds(ctx, spec, idx+1, rep)
	}
	// Per-value iteration: enumerate the condition domain's values, bind
	// the variable for each value that satisfies (or fails, for else
	// bodies) the condition predicate.
	elems, err := e.resolveDomain(ctx, cond.Spec.Domain)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for i := range elems {
		v := elems[i]
		if v.IsList() || seen[v.Raw] {
			continue
		}
		seen[v.Raw] = true
		outs, err := e.evalPred(ctx, cond.Spec.Pred, []value.V{v})
		if err != nil {
			return err
		}
		if outs[0].pass == cond.Negate {
			continue
		}
		sub := ctx.clone()
		sub.env = copyEnv(ctx.env)
		sub.env[cond.BindVar] = v.Raw
		if err := e.runConds(sub, spec, idx+1, rep); err != nil {
			return err
		}
	}
	return nil
}

func copyEnv(env map[string]string) map[string]string {
	out := make(map[string]string, len(env)+1)
	for k, v := range env {
		out[k] = v
	}
	return out
}

// condHolds evaluates a condition statement as a boolean under its
// quantifier: ∀ = every element passes (vacuously true when empty),
// ∃ = some element passes, ∃! = exactly one passes.
func (e *interp) condHolds(ctx *evalCtx, cond *ast.SpecStmt) (bool, error) {
	elems, err := e.resolveDomain(ctx, cond.Domain)
	if err != nil {
		return false, err
	}
	outs, err := e.evalPred(ctx, cond.Pred, elems)
	if err != nil {
		return false, err
	}
	passing := 0
	for _, o := range outs {
		if o.pass {
			passing++
		}
	}
	switch cond.Quant {
	case ast.QuantExists:
		return passing > 0, nil
	case ast.QuantOne:
		return passing == 1, nil
	default:
		return passing == len(outs), nil
	}
}

// runBody evaluates the spec's domains under its compartment (if any).
func (e *interp) runBody(ctx *evalCtx, spec *compiler.Spec, rep *report.Report) error {
	for _, dom := range spec.Domains {
		if rep.Stopped {
			return nil
		}
		comp := spec.Compartment
		inner := dom
		liftCompartment := func(cd *ast.CompartmentDomain) {
			p := cd.Scope
			if comp != nil {
				p = cd.Scope.Prefixed(*comp)
			}
			comp = &p
		}
		switch t := dom.(type) {
		case *ast.CompartmentDomain:
			// Inline #[Scope] $X# form.
			liftCompartment(t)
			inner = t.Inner
		case *ast.Pipe:
			// #[Scope] $X# -> transform ...: the compartment heads the
			// pipeline; grouping applies to the whole chain.
			if cd, ok := t.Src.(*ast.CompartmentDomain); ok {
				liftCompartment(cd)
				inner = &ast.Pipe{Src: cd.Inner, Steps: t.Steps}
			}
		}
		if comp == nil {
			if err := e.evalOneDomain(ctx, spec, inner, rep); err != nil {
				return err
			}
			continue
		}
		// Compartment evaluation: group the domain's base reference by
		// compartment instance, then evaluate the full domain (pipeline
		// included) once per group, so reduce-style transformations and
		// aggregate predicates stay inside the compartment instance.
		order, err := e.compartmentGroups(ctx, *comp, inner)
		if err != nil {
			return err
		}
		for _, g := range order {
			if rep.Stopped {
				return nil
			}
			sub := ctx.clone()
			sub.group = g
			sub.glen = len(comp.Segs)
			sub.compPattern = comp
			elems, err := e.resolveDomain(sub, inner)
			if err != nil {
				return err
			}
			if err := e.evalElements(sub, spec, elems, rep); err != nil {
				return err
			}
		}
	}
	return nil
}

// compartmentGroups resolves the domain's base configuration reference
// inside the compartment and returns the distinct compartment instance
// prefixes, in first-appearance order.
func (e *interp) compartmentGroups(ctx *evalCtx, comp config.Pattern, dom ast.Domain) ([]string, error) {
	base := plan.BaseRef(dom)
	if base == nil {
		return nil, fmt.Errorf("compartment domain has no configuration reference to group by")
	}
	sub := ctx.clone()
	sub.compPattern = &comp
	sub.glen = len(comp.Segs)
	ins, err := e.resolveRef(sub, base.Pattern)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var order []string
	for _, in := range ins {
		g := in.Key.PrefixString(len(comp.Segs))
		if !seen[g] {
			seen[g] = true
			order = append(order, g)
		}
	}
	return order, nil
}

// evalOneDomain resolves a domain globally and applies the predicate.
func (e *interp) evalOneDomain(ctx *evalCtx, spec *compiler.Spec, dom ast.Domain, rep *report.Report) error {
	elems, err := e.resolveDomain(ctx, dom)
	if err != nil {
		return err
	}
	return e.evalElements(ctx, spec, elems, rep)
}

// evalElements applies the spec predicate to an element set and records
// violations according to the quantifier.
func (e *interp) evalElements(ctx *evalCtx, spec *compiler.Spec, elems []value.V, rep *report.Report) error {
	if len(elems) == 0 {
		// A compartment instance lacking the domain keys is skipped
		// (§4.2.2); outside compartments an empty domain is also vacuous.
		return nil
	}
	// Plain conditional guards, evaluated in the current (possibly
	// compartment-grouped) context.
	for _, cond := range ctx.spec.Conds {
		if cond.BindVar != "" {
			continue // already applied by runConds
		}
		ok, err := e.condHolds(ctx, cond.Spec)
		if err != nil {
			return err
		}
		if ok == cond.Negate {
			return nil
		}
	}
	rep.InstancesChecked += len(elems)
	outs, err := e.evalPred(ctx, spec.Pred, elems)
	if err != nil {
		return err
	}
	passing := 0
	for _, o := range outs {
		if o.pass {
			passing++
		}
	}
	switch spec.Quant {
	case ast.QuantExists:
		if passing == 0 {
			rep.Add(e.violation(ctx, elems[0], fmt.Sprintf("no instance satisfies the required predicate (%d checked)", len(elems))))
		}
	case ast.QuantOne:
		if passing != 1 {
			rep.Add(e.violation(ctx, elems[0], fmt.Sprintf("exactly one instance must satisfy the predicate; %d of %d do", passing, len(elems))))
		}
	default:
		for i, o := range outs {
			if !o.pass {
				rep.Add(e.violation(ctx, elems[i], o.msg))
				if e.Opts.StopOnFirst {
					break
				}
			}
		}
	}
	if e.Opts.StopOnFirst && len(rep.Violations) > 0 {
		rep.Stopped = true
	}
	return nil
}

func (e *interp) violation(ctx *evalCtx, v value.V, msg string) report.Violation {
	spec := ctx.spec
	if spec.Message != "" {
		msg = spec.Message // explicit override (§4.4)
	}
	viol := report.Violation{
		Seq:      ctx.seq,
		SpecID:   spec.ID,
		Spec:     spec.Text,
		Value:    v.String(),
		Message:  msg,
		Severity: spec.Severity,
	}
	if v.Inst != nil {
		viol.Key = v.Inst.Key.String()
		viol.Source = v.Inst.Source
	}
	return viol
}

// ---- Domain resolution ----

// resolveDomain produces the element set for a domain expression.
func (e *interp) resolveDomain(ctx *evalCtx, d ast.Domain) ([]value.V, error) {
	switch t := d.(type) {
	case *ast.Ref:
		ins, err := e.resolveRef(ctx, t.Pattern)
		if err != nil {
			return nil, err
		}
		out := make([]value.V, len(ins))
		for i, in := range ins {
			out[i] = value.FromInstance(in)
		}
		return out, nil
	case *ast.PipeVar:
		if ctx.cur == nil {
			return nil, fmt.Errorf("$_ used outside a pipeline")
		}
		return []value.V{*ctx.cur}, nil
	case *ast.Pipe:
		elems, err := e.resolveDomain(ctx, t.Src)
		if err != nil {
			return nil, err
		}
		for _, step := range t.Steps {
			elems, err = e.applyStep(ctx, step, elems)
			if err != nil {
				return nil, err
			}
		}
		return elems, nil
	case *ast.BinaryDomain:
		l, err := e.resolveDomain(ctx, t.L)
		if err != nil {
			return nil, err
		}
		r, err := e.resolveDomain(ctx, t.R)
		if err != nil {
			return nil, err
		}
		return e.combine(ctx, t.Op, l, r)
	case *ast.CompartmentDomain:
		return nil, fmt.Errorf("nested compartment domains are not supported; put the compartment at the start of the statement")
	}
	return nil, fmt.Errorf("unsupported domain %T", d)
}

// resolveRef resolves a configuration reference pattern: substitute
// variables, try namespace prefixes innermost-first, apply the compartment
// prefix, and filter to the current compartment group.
func (e *interp) resolveRef(ctx *evalCtx, pat config.Pattern) ([]*config.Instance, error) {
	sub := pat.Substitute(func(name string) (string, bool) {
		if name == "_" && ctx.cur != nil && !ctx.cur.IsList() {
			return ctx.cur.Raw, true
		}
		v, ok := ctx.env[name]
		return v, ok
	})
	if sub.HasVars() {
		return nil, fmt.Errorf("unbound variable(s) %v in %s", sub.Vars(), pat)
	}
	// Candidate patterns in resolution order (§4.2.2): compartment +
	// namespace, compartment alone, namespaces alone, bare.
	var candidates []config.Pattern
	if ctx.compPattern != nil {
		for _, ns := range ctx.spec.Namespaces {
			candidates = append(candidates, sub.Prefixed(ns).Prefixed(*ctx.compPattern))
		}
		candidates = append(candidates, sub.Prefixed(*ctx.compPattern))
	}
	for _, ns := range ctx.spec.Namespaces {
		candidates = append(candidates, sub.Prefixed(ns))
	}
	candidates = append(candidates, sub)
	for i, cand := range candidates {
		ins := e.discover(cand)
		if len(ins) == 0 {
			continue
		}
		// Compartment-grouped filtering applies only when the reference
		// resolved under the compartment prefix.
		inComp := ctx.compPattern != nil && i < len(ctx.spec.Namespaces)+1
		if inComp && ctx.group != "" {
			var filtered []*config.Instance
			for _, in := range ins {
				if in.Key.PrefixString(ctx.glen) == ctx.group {
					filtered = append(filtered, in)
				}
			}
			ins = filtered
		}
		return ins, nil
	}
	return nil, nil
}

func (e *interp) discover(p config.Pattern) []*config.Instance {
	sn := e.snap
	if e.Opts.NaiveDiscovery {
		return sn.DiscoverNaive(p)
	}
	return sn.Discover(p)
}

// applyStep runs one pipeline step over the element set.
func (e *interp) applyStep(ctx *evalCtx, step *ast.Step, elems []value.V) ([]value.V, error) {
	if step.Guard != nil {
		outs, err := e.evalPred(ctx, step.Guard, elems)
		if err != nil {
			return nil, err
		}
		var kept []value.V
		for i, o := range outs {
			if o.pass {
				kept = append(kept, elems[i])
			}
		}
		elems = kept
	}
	t := step.T
	switch t.Name {
	case "foreach":
		if len(t.Args) != 1 {
			return nil, fmt.Errorf("foreach expects one domain argument")
		}
		de, ok := t.Args[0].(*ast.DomainExpr)
		if !ok {
			return nil, fmt.Errorf("foreach argument must be a domain")
		}
		var out []value.V
		for i := range elems {
			sub := ctx.clone()
			sub.cur = &elems[i]
			vs, err := e.resolveDomain(sub, de.D)
			if err != nil {
				return nil, err
			}
			out = append(out, vs...)
		}
		return out, nil
	case "tuple":
		var out []value.V
		for i := range elems {
			sub := ctx.clone()
			sub.cur = &elems[i]
			members := make([]value.V, 0, len(t.Args))
			for _, a := range t.Args {
				vs, err := e.evalExpr(sub, a)
				if err != nil {
					return nil, err
				}
				if len(vs) != 1 {
					return nil, fmt.Errorf("tuple member resolved to %d values; expected exactly one", len(vs))
				}
				members = append(members, vs[0])
			}
			out = append(out, value.ListOf(members))
		}
		return out, nil
	}
	f, ok := transform.Lookup(t.Name)
	if !ok {
		return nil, fmt.Errorf("unknown transform %q", t.Name)
	}
	args, err := e.evalArgs(ctx, t.Args)
	if err != nil {
		return nil, err
	}
	if f.Style == transform.Reduce {
		v, err := transform.ApplyReduce(f, args, elems)
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
		// Scalar-input transforms iterate over list members, each member
		// result becoming its own pipeline element (§4.2.3).
		if f.ScalarInput && el.IsList() {
			for _, member := range el.List {
				v, err := transform.ApplyMap(f, args, member)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			continue
		}
		v, err := transform.ApplyMap(f, args, el)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// evalArgs evaluates transform arguments that must be scalar literals or
// globally-resolvable single values.
func (e *interp) evalArgs(ctx *evalCtx, args []ast.Expr) ([]value.V, error) {
	out := make([]value.V, 0, len(args))
	for _, a := range args {
		vs, err := e.evalExpr(ctx, a)
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

// combine applies an arithmetic operator across two element sets: zipped
// when inside a compartment group with equal cardinality, Cartesian
// otherwise (§4.2.1).
func (e *interp) combine(ctx *evalCtx, op token.Kind, l, r []value.V) ([]value.V, error) {
	opStr := op.String()
	var out []value.V
	if ctx.group != "" && len(l) == len(r) {
		for i := range l {
			v, err := transform.Arith(opStr, l[i], r[i])
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}
	for _, a := range l {
		for _, b := range r {
			v, err := transform.Arith(opStr, a, b)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// ---- Predicate evaluation ----

// outcome is the per-element result of a predicate.
type outcome struct {
	pass bool
	msg  string // failure explanation (only when !pass)
}

// evalPred evaluates a predicate over an element set, returning one
// outcome per element. Aggregate predicates (consistent, unique, ordered)
// are element-wise too: the offending elements fail.
func (e *interp) evalPred(ctx *evalCtx, p ast.Pred, elems []value.V) ([]outcome, error) {
	switch t := p.(type) {
	case *ast.And:
		l, err := e.evalPred(ctx, t.L, elems)
		if err != nil {
			return nil, err
		}
		r, err := e.evalPred(ctx, t.R, elems)
		if err != nil {
			return nil, err
		}
		out := make([]outcome, len(elems))
		for i := range elems {
			switch {
			case !l[i].pass:
				out[i] = l[i]
			case !r[i].pass:
				out[i] = r[i]
			default:
				out[i] = outcome{pass: true}
			}
		}
		return out, nil
	case *ast.Or:
		l, err := e.evalPred(ctx, t.L, elems)
		if err != nil {
			return nil, err
		}
		r, err := e.evalPred(ctx, t.R, elems)
		if err != nil {
			return nil, err
		}
		out := make([]outcome, len(elems))
		for i := range elems {
			if l[i].pass || r[i].pass {
				out[i] = outcome{pass: true}
			} else {
				out[i] = outcome{msg: l[i].msg + ", and " + r[i].msg}
			}
		}
		return out, nil
	case *ast.Not:
		inner, err := e.evalPred(ctx, t.X, elems)
		if err != nil {
			return nil, err
		}
		out := make([]outcome, len(elems))
		for i := range elems {
			if inner[i].pass {
				out[i] = outcome{msg: "must not satisfy: " + ast.Render(t.X)}
			} else {
				out[i] = outcome{pass: true}
			}
		}
		return out, nil
	case *ast.QuantPred:
		sub := ctx.clone()
		sub.quant = t.Q
		return e.evalPred(sub, t.X, elems)
	case *ast.IfPred:
		cond, err := e.evalPred(ctx, t.Cond, elems)
		if err != nil {
			return nil, err
		}
		thenOut, err := e.evalPred(ctx, t.Then, elems)
		if err != nil {
			return nil, err
		}
		var elseOut []outcome
		if t.Else != nil {
			elseOut, err = e.evalPred(ctx, t.Else, elems)
			if err != nil {
				return nil, err
			}
		}
		out := make([]outcome, len(elems))
		for i := range elems {
			switch {
			case cond[i].pass:
				out[i] = thenOut[i]
			case elseOut != nil:
				out[i] = elseOut[i]
			default:
				out[i] = outcome{pass: true}
			}
		}
		return out, nil
	case *ast.MacroRef:
		m, ok := ctx.prog.Macros[t.Name]
		if !ok {
			return nil, fmt.Errorf("undefined macro @%s", t.Name)
		}
		return e.evalPred(ctx, m, elems)
	case *ast.TypePred:
		return e.each(elems, func(v value.V) (bool, string) {
			if predicate.TypeCheck(t.T, v) {
				return true, ""
			}
			return false, fmt.Sprintf("value %q is not a valid %s", v, t.T)
		}), nil
	case *ast.Prim:
		return e.evalPrim(ctx, t, elems)
	case *ast.Match:
		var firstErr error
		out := e.each(elems, func(v value.V) (bool, string) {
			ok, err := predicate.MatchPattern(t.Pattern, v)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if ok {
				return true, ""
			}
			return false, fmt.Sprintf("value %q does not match '%s'", v, t.Pattern)
		})
		return out, firstErr
	case *ast.Range:
		return e.evalRange(ctx, t, elems)
	case *ast.Enum:
		return e.evalEnum(ctx, t, elems)
	case *ast.Rel:
		return e.evalRel(ctx, t, elems)
	case *ast.Call:
		return e.evalCall(ctx, t, elems)
	}
	return nil, fmt.Errorf("unsupported predicate %T", p)
}

func (e *interp) each(elems []value.V, f func(value.V) (bool, string)) []outcome {
	out := make([]outcome, len(elems))
	for i, v := range elems {
		ok, msg := f(v)
		out[i] = outcome{pass: ok, msg: msg}
	}
	return out
}

func (e *interp) evalPrim(ctx *evalCtx, t *ast.Prim, elems []value.V) ([]outcome, error) {
	switch t.Name {
	case "nonempty":
		return e.each(elems, func(v value.V) (bool, string) {
			if predicate.Nonempty(v) {
				return true, ""
			}
			return false, "value is empty"
		}), nil
	case "exists":
		return e.each(elems, func(v value.V) (bool, string) {
			if predicate.PathExists(e.Env, v) {
				return true, ""
			}
			return false, fmt.Sprintf("path %q does not exist", v)
		}), nil
	case "reachable":
		return e.each(elems, func(v value.V) (bool, string) {
			if predicate.Reachable(e.Env, v) {
				return true, ""
			}
			return false, fmt.Sprintf("endpoint %q is not reachable", v)
		}), nil
	case "unique":
		out := make([]outcome, len(elems))
		for i := range out {
			out[i] = outcome{pass: true}
		}
		for _, part := range plan.PartitionByClass(elems) {
			sub := plan.Subset(elems, part)
			for _, j := range predicate.UniqueViolations(sub) {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q duplicates another instance's value", elems[i])}
			}
		}
		return out, nil
	case "consistent":
		out := make([]outcome, len(elems))
		for i := range out {
			out[i] = outcome{pass: true}
		}
		for _, part := range plan.PartitionByClass(elems) {
			sub := plan.Subset(elems, part)
			viols := predicate.ConsistentViolations(sub)
			if len(viols) == 0 {
				continue
			}
			majority := plan.MajorityValue(sub, viols)
			for _, j := range viols {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q is inconsistent with the majority value %q", elems[i], majority)}
			}
		}
		return out, nil
	case "ordered":
		out := make([]outcome, len(elems))
		for i := range out {
			out[i] = outcome{pass: true}
		}
		for _, part := range plan.PartitionByClass(elems) {
			sub := plan.Subset(elems, part)
			for _, j := range predicate.OrderedViolations(sub) {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q breaks the expected ordering (previous: %q)", elems[i], sub[j-1])}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown primitive predicate %q", t.Name)
}

func (e *interp) evalRange(ctx *evalCtx, t *ast.Range, elems []value.V) ([]outcome, error) {
	out := make([]outcome, len(elems))
	for i := range elems {
		sub := ctx.clone()
		sub.cur = &elems[i]
		los, err := e.evalExpr(sub, t.Lo)
		if err != nil {
			return nil, err
		}
		his, err := e.evalExpr(sub, t.Hi)
		if err != nil {
			return nil, err
		}
		pairs := plan.PairBounds(los, his)
		if len(pairs) == 0 {
			out[i] = outcome{msg: "range bounds resolved to no values"}
			continue
		}
		matches := 0
		for _, pr := range pairs {
			if predicate.InRange(pr[0], pr[1], elems[i]) {
				matches++
			}
		}
		ok := plan.QuantHolds(ctx.quant, matches, len(pairs))
		msg := ""
		if !ok {
			msg = fmt.Sprintf("value %q is out of range [%s, %s]", elems[i], pairs[0][0], pairs[0][1])
			if len(pairs) > 1 {
				msg = fmt.Sprintf("value %q is not within the required %d candidate range(s)", elems[i], len(pairs))
			}
		}
		out[i] = outcome{pass: ok, msg: msg}
	}
	return out, nil
}

func (e *interp) evalEnum(ctx *evalCtx, t *ast.Enum, elems []value.V) ([]outcome, error) {
	// Enum membership is inherently existential over the member set; the
	// member set is the union of all candidate values.
	var members []value.V
	needPerElement := false
	for _, el := range t.Elems {
		if plan.ExprUsesCur(el) {
			needPerElement = true
			break
		}
	}
	if !needPerElement {
		for _, el := range t.Elems {
			vs, err := e.evalExpr(ctx, el)
			if err != nil {
				return nil, err
			}
			members = append(members, vs...)
		}
	}
	out := make([]outcome, len(elems))
	for i := range elems {
		ms := members
		if needPerElement {
			sub := ctx.clone()
			sub.cur = &elems[i]
			ms = nil
			for _, el := range t.Elems {
				vs, err := e.evalExpr(sub, el)
				if err != nil {
					return nil, err
				}
				ms = append(ms, vs...)
			}
		}
		if predicate.InEnum(ms, elems[i]) {
			out[i] = outcome{pass: true}
		} else {
			out[i] = outcome{msg: fmt.Sprintf("value %q is not one of %s", elems[i], plan.RenderMembers(ms))}
		}
	}
	return out, nil
}

func (e *interp) evalRel(ctx *evalCtx, t *ast.Rel, elems []value.V) ([]outcome, error) {
	op := t.Op.String()
	out := make([]outcome, len(elems))
	for i := range elems {
		sub := ctx.clone()
		sub.cur = &elems[i]
		rhs, err := e.evalExpr(sub, t.Rhs)
		if err != nil {
			return nil, err
		}
		if len(rhs) == 0 {
			out[i] = outcome{msg: fmt.Sprintf("relation %s: right-hand side resolved to no values", op)}
			continue
		}
		matches := 0
		for _, r := range rhs {
			ok, err := predicate.Rel(op, elems[i], r)
			if err != nil {
				return nil, err
			}
			if ok {
				matches++
			}
		}
		ok := plan.QuantHolds(ctx.quant, matches, len(rhs))
		msg := ""
		if !ok {
			msg = fmt.Sprintf("value %q violates '%s %s'", elems[i], op, rhs[0])
			if len(rhs) > 1 {
				msg = fmt.Sprintf("value %q violates '%s' against %d candidate value(s)", elems[i], op, len(rhs))
			}
		}
		out[i] = outcome{pass: ok, msg: msg}
	}
	return out, nil
}

func (e *interp) evalCall(ctx *evalCtx, t *ast.Call, elems []value.V) ([]outcome, error) {
	if t.Name == "__domain_lhs" {
		return nil, fmt.Errorf("domain-to-domain relations are only supported at statement level ($A <= $B)")
	}
	f, ok := predicate.Lookup(t.Name)
	if !ok {
		return nil, fmt.Errorf("unknown predicate %q", t.Name)
	}
	args, err := e.evalArgs(ctx, t.Args)
	if err != nil {
		return nil, err
	}
	out := make([]outcome, len(elems))
	for i, v := range elems {
		ok, err := f.Check(e.Env, args, v)
		if err != nil {
			return nil, err
		}
		if ok {
			out[i] = outcome{pass: true}
		} else {
			out[i] = outcome{msg: fmt.Sprintf("value %q fails %s", v, ast.Render(t))}
		}
	}
	return out, nil
}

// ---- Expressions ----

// evalExpr evaluates an expression to its candidate values.
func (e *interp) evalExpr(ctx *evalCtx, x ast.Expr) ([]value.V, error) {
	switch t := x.(type) {
	case *ast.Lit:
		return []value.V{value.Scalar(t.Text)}, nil
	case *ast.DomainExpr:
		return e.resolveDomain(ctx, t.D)
	}
	return nil, fmt.Errorf("unsupported expression %T", x)
}
