package plan

// Execution: runs lowered spec nodes against a Runtime, mirroring the
// interpreter's control flow — binding conditionals, compartment
// grouping, quantifier accounting, stop-on-first — so the two paths
// produce identical reports.

import (
	"errors"
	"fmt"

	"confvalley/internal/cpl/ast"
	"confvalley/internal/report"
	"confvalley/internal/value"
)

// errInterrupted aborts spec evaluation when the run's context is
// canceled. It is never recorded as a spec error: the spec did not fail,
// the run stopped.
var errInterrupted = errors.New("plan: run interrupted")

// Run evaluates one specification node, appending violations to rep.
//
// Two containment layers live here. A panic anywhere under the spec —
// typically a plug-in predicate or transformation misbehaving on hostile
// configuration data — is recovered and converted into a spec-level
// error, with the spec's partial violations rolled back, so one broken
// plug-in cannot take down a watch daemon or disturb sibling specs
// running in other goroutines. A canceled context likewise rolls the
// in-flight spec back and marks the report Interrupted instead of
// reporting a half-checked spec.
func (n *SpecNode) Run(rt *Runtime, rep *report.Report) {
	c := getCtx(rt)
	defer putCtx(c)
	n.run(c, rep)
}

// run is Run on a context the caller binds and releases.
func (n *SpecNode) run(c *Ctx, rep *report.Report) {
	rep.SpecsRun++
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
		return n.runConds(c, 0, rep)
	}()
	if errors.Is(err, errInterrupted) {
		// Roll back the partial spec: a spec cut off mid-evaluation has
		// no trustworthy verdict, and the splice machinery must not cache
		// one. The report says what happened via Interrupted.
		rep.Violations = rep.Violations[:before]
		rep.InstancesChecked = instBefore
		rep.SpecsRun--
		rep.Interrupted = true
		return
	}
	if err != nil {
		if panicked {
			// A panicking plug-in proves nothing about the data: roll its
			// partial violations back so the spec reports one containment
			// error, not a half-finished violation list.
			rep.Violations = rep.Violations[:before]
			rep.InstancesChecked = instBefore
		}
		rep.AddSpecError(fmt.Sprintf("%s: %v", n.Spec.Text, err))
		rep.CloseSection(n.Seq, report.SpecOutcome{Instances: rep.InstancesChecked - instBefore, Errored: true})
		return
	}
	failed := len(rep.Violations) > before
	if failed {
		rep.SpecsFailed++
		if c.rt.StopOnFirst {
			rep.Stopped = true
		}
	}
	rep.CloseSection(n.Seq, report.SpecOutcome{Instances: rep.InstancesChecked - instBefore, Failed: failed})
}

// runConds applies the spec's variable-binding guards left to right, then
// evaluates the body. Plain (non-binding) guards are deferred to
// evalElements so that, inside a compartment, they are re-evaluated per
// compartment instance.
func (n *SpecNode) runConds(c *Ctx, idx int, rep *report.Report) error {
	if idx == len(n.conds) {
		return n.runBody(c, rep)
	}
	cn := &n.conds[idx]
	if cn.bindVar == "" {
		return n.runConds(c, idx+1, rep)
	}
	// Per-value iteration: enumerate the condition domain's values, bind
	// the variable for each value that satisfies (or fails, for else
	// bodies) the condition predicate.
	elems, err := cn.domain(c)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	for i := range elems {
		if c.canceled() {
			return errInterrupted
		}
		v := elems[i]
		if v.IsList() || seen[v.Raw] {
			continue
		}
		seen[v.Raw] = true
		outs, err := cn.pred(c, []value.V{v})
		if err != nil {
			return err
		}
		if outs[0].pass == cn.negate {
			continue
		}
		savedEnv := c.env
		env := make(map[string]string, len(savedEnv)+1)
		for k, vv := range savedEnv {
			env[k] = vv
		}
		env[cn.bindVar] = v.Raw
		c.env = env
		err = n.runConds(c, idx+1, rep)
		c.env = savedEnv
		if err != nil {
			return err
		}
	}
	return nil
}

// holds evaluates a plain conditional as a boolean under its quantifier:
// ∀ = every element passes (vacuously true when empty), ∃ = some element
// passes, ∃! = exactly one passes.
func (cn *condNode) holds(c *Ctx) (bool, error) {
	elems, err := cn.domain(c)
	if err != nil {
		return false, err
	}
	outs, err := cn.pred(c, elems)
	if err != nil {
		return false, err
	}
	passing := 0
	for _, o := range outs {
		if o.pass {
			passing++
		}
	}
	return QuantHolds(cn.quant, passing, len(outs)), nil
}

// runBody evaluates the spec's domains under their compartments (if any).
func (n *SpecNode) runBody(c *Ctx, rep *report.Report) error {
	for i := range n.domains {
		if rep.Stopped {
			return nil
		}
		if c.canceled() {
			return errInterrupted
		}
		de := &n.domains[i]
		if de.comp == nil {
			elems, err := de.resolve(c)
			if err != nil {
				return err
			}
			if err := n.evalElements(c, elems, rep); err != nil {
				return err
			}
			continue
		}
		// Compartment evaluation: group the domain's base reference by
		// compartment instance, then evaluate the full domain (pipeline
		// included) once per group, so reduce-style transformations and
		// aggregate predicates stay inside the compartment instance.
		if de.groupRef == nil {
			return fmt.Errorf("compartment domain has no configuration reference to group by")
		}
		// runBody is the only place a compartment is entered and it does
		// not nest (a nested block compiles to one combined pattern), so
		// leaving one always returns to "no compartment".
		c.compPattern = de.comp
		err := n.runGroups(c, de, rep)
		c.group, c.compPattern = -1, nil
		if err != nil {
			return err
		}
	}
	return nil
}

// runGroups evaluates one compartment domain once per compartment
// instance, in first-appearance order of the base reference's instances.
// The base reference is resolved and partitioned once (resolution is
// memoised on c), so the loop costs a lookup per group and the whole
// domain is linear in its instances.
func (n *SpecNode) runGroups(c *Ctx, de *domainEval, rep *report.Report) error {
	base, err := de.groupRef.resolve(c)
	if err != nil {
		return err
	}
	for _, g := range base.partition(c.rt, len(de.comp.Segs)).order {
		if rep.Stopped {
			return nil
		}
		if c.canceled() {
			return errInterrupted
		}
		c.group = g
		elems, err := de.resolve(c)
		if err != nil {
			return err
		}
		if err := n.evalElements(c, elems, rep); err != nil {
			return err
		}
	}
	return nil
}

// evalElements applies the spec predicate to an element set and records
// violations according to the quantifier.
func (n *SpecNode) evalElements(c *Ctx, elems []value.V, rep *report.Report) error {
	if len(elems) == 0 {
		// A compartment instance lacking the domain keys is skipped
		// (§4.2.2); outside compartments an empty domain is also vacuous.
		return nil
	}
	// Plain conditional guards, evaluated in the current (possibly
	// compartment-grouped) context.
	for i := range n.conds {
		cn := &n.conds[i]
		if cn.bindVar != "" {
			continue // already applied by runConds
		}
		ok, err := cn.holds(c)
		if err != nil {
			return err
		}
		if ok == cn.negate {
			return nil
		}
	}
	rep.InstancesChecked += len(elems)
	outs, err := n.pred(c, elems)
	if err != nil {
		return err
	}
	passing := 0
	for _, o := range outs {
		if o.pass {
			passing++
		}
	}
	switch n.Spec.Quant {
	case ast.QuantExists:
		if passing == 0 {
			rep.Add(n.violation(elems[0], fmt.Sprintf("no instance satisfies the required predicate (%d checked)", len(elems))))
		}
	case ast.QuantOne:
		if passing != 1 {
			rep.Add(n.violation(elems[0], fmt.Sprintf("exactly one instance must satisfy the predicate; %d of %d do", passing, len(elems))))
		}
	default:
		for i, o := range outs {
			if !o.pass {
				rep.Add(n.violation(elems[i], o.msg))
				if c.rt.StopOnFirst {
					break
				}
			}
		}
	}
	if c.rt.StopOnFirst && len(rep.Violations) > 0 {
		rep.Stopped = true
	}
	return nil
}

func (n *SpecNode) violation(v value.V, msg string) report.Violation {
	spec := n.Spec
	if spec.Message != "" {
		msg = spec.Message // explicit override (§4.4)
	}
	viol := report.Violation{
		Seq:      n.Seq,
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
