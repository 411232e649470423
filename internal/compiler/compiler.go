// Package compiler lowers parsed CPL statements into an executable
// Program: a flat list of specifications annotated with their namespace,
// compartment and conditional context, plus the session-level commands
// (loads, includes, policies) the runtime executes.
//
// The compiler also performs the specification rewrites of §5.2 / Figure 4:
// aggregating predicates that share a domain, aggregating domains that
// share a predicate, and omitting constraints implied by others.
package compiler

import (
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"

	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/parser"
	"confvalley/internal/cpl/token"
	"confvalley/internal/predicate"
	"confvalley/internal/report"
	"confvalley/internal/transform"
	"confvalley/internal/vtype"
)

func init() {
	// Let the parser recognize plug-in transforms registered at runtime.
	// foreach and the [a, b] tuple constructor are engine-level pipeline
	// forms, not registry entries.
	parser.IsTransform = func(name string) bool {
		return name == "foreach" || transform.Known(name)
	}
}

// Cond is one conditional guard inherited from an enclosing if-statement.
type Cond struct {
	Spec   *ast.SpecStmt // the condition to evaluate
	Negate bool          // true for else-branch bodies
	// BindVar, when nonempty, switches the guard to per-value iteration:
	// the condition's domain values are enumerated and the body is
	// evaluated once per value satisfying the condition, with BindVar
	// bound (the Listing 5 $CloudName idiom).
	BindVar string
}

// Spec is one executable specification.
type Spec struct {
	ID      int
	Quant   ast.Quant
	Domains []ast.Domain // usually one; >1 after domain aggregation
	Pred    ast.Pred

	Namespaces  []config.Pattern // innermost first
	Compartment *config.Pattern  // combined pattern; nil when none
	Conds       []Cond           // outermost first

	Severity report.Severity
	Priority int // higher runs earlier
	// Message overrides the auto-generated error message (§4.4).
	Message string
	Text    string
}

// Load mirrors a load command.
type Load struct {
	Driver, Source, Scope string
}

// Program is a compiled CPL unit. It is immutable once compiled and
// always handled by pointer, never copied.
type Program struct {
	Loads    []Load
	Includes []string
	Policies map[string]string
	Macros   map[string]ast.Pred
	Specs    []*Spec

	// Stats describes what the optimizer did (Figure 4 ablation).
	Stats OptStats

	lowerOnce sync.Once
	lowered   any
}

// Lowered returns what lower builds from p, calling lower at most once
// per program, however many goroutines ask first. internal/plan keeps
// the program's executable plan here, so a plan lives and dies with its
// program; it is typed any because this package cannot import plan.
func (p *Program) Lowered(lower func(*Program) any) any {
	p.lowerOnce.Do(func() { p.lowered = lower(p) })
	return p.lowered
}

// OptStats counts optimizer rewrites.
type OptStats struct {
	PredicatesAggregated int // (a) merged specs sharing a domain
	DomainsAggregated    int // (b) merged specs sharing a predicate
	ConstraintsOmitted   int // (c) implied constraints dropped
}

// Options control compilation.
type Options struct {
	// Optimize enables the Figure 4 rewrites (on by default via Compile).
	Optimize bool
	// Resolver loads included specification files by name; nil disables
	// include (an error if one is present).
	Resolver func(path string) (string, error)
}

// Error is a compile error with the offending construct. Pos locates
// the construct in its source file; it is the zero value only for
// errors with no single source anchor. Where names the construct
// ("include 'x'", "policy severity") when a name reads better than a
// bare position.
type Error struct {
	Pos   token.Pos
	Where string
	Msg   string
}

func (e *Error) Error() string {
	switch {
	case e.Pos.Line > 0 && e.Where != "":
		return fmt.Sprintf("cpl:%s: %s: %s", e.Pos, e.Where, e.Msg)
	case e.Pos.Line > 0:
		return fmt.Sprintf("cpl:%s: %s", e.Pos, e.Msg)
	case e.Where != "":
		return fmt.Sprintf("cpl: %s: %s", e.Where, e.Msg)
	default:
		return "cpl: " + e.Msg
	}
}

// Compile parses and compiles CPL source with optimizations enabled.
func Compile(src string) (*Program, error) {
	return CompileWith(src, Options{Optimize: true})
}

// CompileWith parses and compiles CPL source with explicit options.
func CompileWith(src string, opts Options) (*Program, error) {
	stmts, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileStmts(stmts, opts)
}

// CompileStmts compiles already-parsed statements.
func CompileStmts(stmts []ast.Stmt, opts Options) (*Program, error) {
	prog := &Program{
		Policies: make(map[string]string),
		Macros:   make(map[string]ast.Pred),
	}
	c := &compilerCtx{prog: prog, opts: opts, seen: make(map[string]bool)}
	if err := c.stmts(stmts, scope{}); err != nil {
		return nil, err
	}
	for i, s := range prog.Specs {
		s.ID = i + 1
	}
	if opts.Optimize {
		optimize(prog)
	}
	orderByPriority(prog)
	return prog, nil
}

// scope is the lexical compilation context.
type scope struct {
	namespaces  []config.Pattern
	compartment *config.Pattern
	conds       []Cond
	severity    report.Severity
}

type compilerCtx struct {
	prog *Program
	opts Options
	seen map[string]bool // include cycle detection
}

func (c *compilerCtx) stmts(stmts []ast.Stmt, sc scope) error {
	for _, st := range stmts {
		if err := c.stmt(st, &sc); err != nil {
			return err
		}
	}
	return nil
}

func (c *compilerCtx) stmt(st ast.Stmt, sc *scope) error {
	switch t := st.(type) {
	case *ast.LoadStmt:
		c.prog.Loads = append(c.prog.Loads, Load{Driver: t.Driver, Source: t.Source, Scope: t.Scope})
		return nil
	case *ast.IncludeStmt:
		if c.opts.Resolver == nil {
			return &Error{Pos: t.Pos(), Where: "include '" + t.Path + "'", Msg: "no include resolver configured"}
		}
		if c.seen[t.Path] {
			return &Error{Pos: t.Pos(), Where: "include '" + t.Path + "'", Msg: "include cycle detected"}
		}
		c.seen[t.Path] = true
		src, err := c.opts.Resolver(t.Path)
		if err != nil {
			return &Error{Pos: t.Pos(), Where: "include '" + t.Path + "'", Msg: err.Error()}
		}
		sub, err := parser.Parse(src)
		if err != nil {
			return err
		}
		c.prog.Includes = append(c.prog.Includes, t.Path)
		return c.stmts(sub, *sc)
	case *ast.LetStmt:
		if _, dup := c.prog.Macros[t.Name]; dup {
			return &Error{Pos: t.Pos(), Where: "let " + t.Name, Msg: "macro redefined"}
		}
		if err := c.check(t.Pred); err != nil {
			return err
		}
		c.prog.Macros[t.Name] = t.Pred
		return nil
	case *ast.PolicyStmt:
		switch t.Name {
		case "severity":
			sev, err := report.ParseSeverity(t.Value)
			if err != nil {
				return &Error{Pos: t.Pos(), Where: "policy severity", Msg: err.Error()}
			}
			sc.severity = sev
		case "on_violation":
			if t.Value != "stop" && t.Value != "continue" {
				return &Error{Pos: t.Pos(), Where: "policy on_violation", Msg: "value must be 'stop' or 'continue'"}
			}
			c.prog.Policies[t.Name] = t.Value
		case "priority":
			c.prog.Policies[t.Name] = t.Value
		default:
			return &Error{Pos: t.Pos(), Where: "policy " + t.Name, Msg: "unknown policy"}
		}
		return nil
	case *ast.GetStmt:
		// get is a console convenience; in batch programs it is a no-op
		// recorded nowhere. The console handles it directly.
		return nil
	case *ast.BlockStmt:
		inner := *sc
		if t.Kind == ast.BlockNamespace {
			inner.namespaces = append([]config.Pattern{t.Scope}, sc.namespaces...)
		} else {
			comb := t.Scope
			if sc.compartment != nil {
				comb = t.Scope.Prefixed(*sc.compartment)
			}
			inner.compartment = &comb
		}
		return c.stmts(t.Body, inner)
	case *ast.IfStmt:
		if err := c.check(t.Cond); err != nil {
			return err
		}
		bind := bindVariable(t)
		thenScope := *sc
		thenScope.conds = append(append([]Cond{}, sc.conds...), Cond{Spec: t.Cond, BindVar: bind})
		if err := c.stmts(t.Then, thenScope); err != nil {
			return err
		}
		if t.Else != nil {
			elseScope := *sc
			elseScope.conds = append(append([]Cond{}, sc.conds...), Cond{Spec: t.Cond, Negate: true, BindVar: bind})
			if err := c.stmts(t.Else, elseScope); err != nil {
				return err
			}
		}
		return nil
	case *ast.SpecStmt:
		if err := c.check(t); err != nil {
			return err
		}
		spec := &Spec{
			Quant:       t.Quant,
			Domains:     []ast.Domain{t.Domain},
			Pred:        t.Pred,
			Namespaces:  sc.namespaces,
			Compartment: sc.compartment,
			Conds:       sc.conds,
			Severity:    sc.severity,
			Message:     t.Message,
			Text:        t.Text,
		}
		c.prog.Specs = append(c.prog.Specs, spec)
		return nil
	}
	return &Error{Msg: fmt.Sprintf("unsupported statement %T", st)}
}

// bindVariable detects the Listing 5 variable-binding idiom: the condition
// domain is a simple one-segment reference whose leaf name appears as a
// variable in a body domain.
func bindVariable(t *ast.IfStmt) string {
	ref, ok := t.Cond.Domain.(*ast.Ref)
	if !ok || len(ref.Pattern.Segs) == 0 {
		return ""
	}
	leaf := ref.Pattern.Segs[len(ref.Pattern.Segs)-1].Name
	if strings.Contains(leaf, "*") {
		return ""
	}
	if bodyUsesVar(t.Then, leaf) || bodyUsesVar(t.Else, leaf) {
		return leaf
	}
	return ""
}

func bodyUsesVar(stmts []ast.Stmt, name string) bool {
	found := false
	for _, st := range stmts {
		ast.Inspect(st, func(n ast.Node) bool {
			if r, ok := n.(*ast.Ref); ok && slices.Contains(r.Pattern.Vars(), name) {
				found = true
			}
			return !found
		})
	}
	return found
}

// check rejects, with a position, the first predicate under n that
// could only fail at evaluation time — an unknown predicate, a wrong
// arity, an undefined macro, a bad /re/ pattern, a nested domain
// relation. It covers every predicate ast.Inspect reaches: nested
// operands, step guards and predicates inside expression-embedded
// domains.
func (c *compilerCtx) check(n ast.Node) error {
	var err error
	ast.Inspect(n, func(n ast.Node) bool {
		if err == nil {
			err = c.checkNode(n)
		}
		return err == nil
	})
	return err
}

// checkNode is check's test of one node.
func (c *compilerCtx) checkNode(n ast.Node) error {
	switch t := n.(type) {
	case *ast.Prim:
		switch t.Name {
		case "nonempty", "unique", "consistent", "ordered", "exists", "reachable":
			return nil
		}
		return &Error{Pos: t.Pos(), Msg: fmt.Sprintf("unknown predicate %q", t.Name)}
	case *ast.Match:
		// Regular-expression patterns are rejected at compile time on
		// both execution paths: the plan path pre-compiles the regex
		// during lowering anyway, and the interpreter oracle must not
		// diverge by failing only when an element is finally matched.
		if err := CheckMatchPattern(t.Pattern); err != nil {
			return &Error{Pos: t.Pos(), Msg: err.Error()}
		}
	case *ast.Call:
		if t.Name == "__domain_lhs" {
			return &Error{Pos: t.Pos(), Msg: "domain-to-domain relations are only supported at statement level ($A <= $B)"}
		}
		f, ok := predicate.Lookup(t.Name)
		if !ok {
			return &Error{Pos: t.Pos(), Msg: fmt.Sprintf("unknown predicate %q (registered: %s)", t.Name, strings.Join(predicate.Names(), ", "))}
		}
		if f.Arity >= 0 && len(t.Args) != f.Arity {
			return &Error{Pos: t.Pos(), Msg: fmt.Sprintf("predicate %s expects %d argument(s), got %d", t.Name, f.Arity, len(t.Args))}
		}
	case *ast.MacroRef:
		if _, ok := c.prog.Macros[t.Name]; !ok {
			return &Error{Pos: t.Pos(), Msg: fmt.Sprintf("undefined macro @%s", t.Name)}
		}
	}
	return nil
}

// CheckMatchPattern validates a match() pattern statically: a pattern in
// the /re/ regular-expression form must compile. Glob and substring
// patterns cannot fail. Shared by the compiler and the lint
// type-mismatch analyzer so both report the identical message.
func CheckMatchPattern(pattern string) error {
	if len(pattern) >= 2 && strings.HasPrefix(pattern, "/") && strings.HasSuffix(pattern, "/") {
		if _, err := regexp.Compile(pattern[1 : len(pattern)-1]); err != nil {
			return fmt.Errorf("match: bad regular expression %q: %v", pattern, err)
		}
	}
	return nil
}

// ---- Optimizer (§5.2, Figure 4) ----

func optimize(prog *Program) {
	// Aggregate predicates first so constraints scattered over separate
	// statements (the redundant hand-written shape) meet inside one
	// conjunction, where implied constraints become visible.
	prog.Specs = aggregatePredicates(prog, prog.Specs)
	prog.Specs = omitImplied(prog, prog.Specs)
	prog.Specs = aggregateDomains(prog, prog.Specs)
}

// contextKey identifies specs that evaluate in the same context and can
// therefore be merged.
func contextKey(s *Spec) string {
	var b strings.Builder
	for _, n := range s.Namespaces {
		b.WriteString("n:" + n.String() + ";")
	}
	if s.Compartment != nil {
		b.WriteString("c:" + s.Compartment.String() + ";")
	}
	for _, c := range s.Conds {
		fmt.Fprintf(&b, "i:%s:%v:%s;", c.Spec.Text, c.Negate, c.BindVar)
	}
	fmt.Fprintf(&b, "q:%d;sev:%d;msg:%s", s.Quant, s.Severity, s.Message)
	return b.String()
}

func domainsKey(s *Spec) string {
	parts := make([]string, len(s.Domains))
	for i, d := range s.Domains {
		parts[i] = ast.Render(d)
	}
	return strings.Join(parts, "|")
}

// aggregatePredicates merges consecutive specs with identical domains and
// context into one spec whose predicate is the conjunction — Figure 4(a):
// one instance-discovery query instead of many.
func aggregatePredicates(prog *Program, specs []*Spec) []*Spec {
	byKey := make(map[string]*Spec)
	var out []*Spec
	for _, s := range specs {
		if s.Quant != ast.QuantAll {
			out = append(out, s)
			continue
		}
		key := contextKey(s) + "|" + domainsKey(s)
		if prev, ok := byKey[key]; ok {
			prev.Pred = &ast.And{L: prev.Pred, R: s.Pred}
			prev.Text = prev.Text + " & " + strings.TrimPrefix(s.Text, ast.Render(s.Domains[0])+" -> ")
			prog.Stats.PredicatesAggregated++
			continue
		}
		byKey[key] = s
		out = append(out, s)
	}
	return out
}

// aggregateDomains merges specs with identical predicates and context into
// one spec over multiple domains — Figure 4(b): predicate memory objects
// are shared.
func aggregateDomains(prog *Program, specs []*Spec) []*Spec {
	byKey := make(map[string]*Spec)
	var out []*Spec
	for _, s := range specs {
		if s.Quant != ast.QuantAll {
			out = append(out, s)
			continue
		}
		key := contextKey(s) + "|" + ast.Render(s.Pred)
		if prev, ok := byKey[key]; ok {
			prev.Domains = append(prev.Domains, s.Domains...)
			prev.Text = prev.Text + " ; " + s.Text
			prog.Stats.DomainsAggregated++
			continue
		}
		byKey[key] = s
		out = append(out, s)
	}
	return out
}

// omitImplied drops constraints implied by stronger ones inside each
// spec's conjunction — Figure 4(c): an enumeration of nonempty strings
// implies both "string" and "nonempty"; "port" implies "int".
func omitImplied(prog *Program, specs []*Spec) []*Spec {
	for _, s := range specs {
		conj := FlattenAnd(s.Pred)
		if len(conj) < 2 {
			continue
		}
		keep := make([]ast.Pred, 0, len(conj))
		for i, p := range conj {
			implied := false
			for j, q := range conj {
				if i == j {
					continue
				}
				if implies(q, p) && !(implies(p, q) && j > i) {
					// q implies p (and not a mutual tie resolved to keep
					// the earlier one): drop p.
					implied = true
					break
				}
			}
			if implied {
				prog.Stats.ConstraintsOmitted++
				continue
			}
			keep = append(keep, p)
		}
		if len(keep) < len(conj) {
			s.Pred = joinAnd(keep)
		}
	}
	return specs
}

// FlattenAnd splits a conjunction into its conjuncts, left to right (a
// non-conjunction is its own single conjunct; nil has none). Exposed
// read-only for the lint analyzers, which reason over the same
// conjunction shape the optimizer rewrites.
func FlattenAnd(p ast.Pred) []ast.Pred {
	var conj []ast.Pred
	ast.Inspect(p, func(n ast.Node) bool {
		if _, ok := n.(*ast.And); ok {
			return true
		}
		conj = append(conj, n.(ast.Pred))
		return false
	})
	return conj
}

func joinAnd(ps []ast.Pred) ast.Pred {
	out := ps[0]
	for _, p := range ps[1:] {
		out = &ast.And{L: out, R: p}
	}
	return out
}

// Implies reports whether predicate q subsumes predicate p (q ⇒ p) for
// the statically decidable cases — the implication relation behind the
// Figure 4(c) omit-implied rewrite, exposed read-only so the dead-spec
// lint analyzer flags what the optimizer would silently drop.
func Implies(q, p ast.Pred) bool { return implies(q, p) }

// implies reports whether predicate q subsumes predicate p (q ⇒ p) for the
// statically decidable cases.
func implies(q, p ast.Pred) bool {
	switch pp := p.(type) {
	case *ast.TypePred:
		switch qq := q.(type) {
		case *ast.TypePred:
			// A more specific type implies a more general one.
			return qq.T != pp.T && vtype.LE(qq.T, pp.T)
		case *ast.Enum:
			vals, ok := enumLiterals(qq)
			if !ok {
				return false
			}
			for _, v := range vals {
				if !vtype.Conforms(v, pp.T) {
					return false
				}
			}
			return true
		}
	case *ast.Prim:
		if pp.Name != "nonempty" {
			return false
		}
		// Only an enumeration of nonempty members implies nonemptiness:
		// type and range predicates pass unset values vacuously.
		if qq, ok := q.(*ast.Enum); ok {
			vals, ok := enumLiterals(qq)
			if !ok {
				return false
			}
			for _, v := range vals {
				if strings.TrimSpace(v) == "" {
					return false
				}
			}
			return true
		}
	case *ast.Range, *ast.Rel:
		// Numeric containment: q admits a narrower interval than p.
		// Whenever q holds the value is numeric and inside q's interval,
		// hence inside p's — p holds too.
		plo, phi, pok := numInterval(p)
		if !pok {
			// Non-interval relations: only an equality over the same
			// literal follows (== 'a' implies == 'a' is identity, handled
			// by the caller's dedup; != is never implied here).
			return false
		}
		if qlo, qhi, ok := numInterval(q); ok {
			return qlo >= plo && qhi <= phi && !(qlo == plo && qhi == phi)
		}
		if qq, ok := q.(*ast.Enum); ok {
			vals, ok := enumLiterals(qq)
			if !ok || len(vals) == 0 {
				return false
			}
			for _, v := range vals {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < plo || f > phi {
					return false
				}
			}
			return true
		}
	case *ast.Enum:
		// Membership containment: every value q admits is a member of p.
		pvals, ok := enumLiterals(pp)
		if !ok {
			return false
		}
		member := func(v string) bool {
			for _, m := range pvals {
				if v == m {
					return true
				}
			}
			return false
		}
		switch qq := q.(type) {
		case *ast.Enum:
			qvals, ok := enumLiterals(qq)
			if !ok || len(qvals) == 0 || len(qvals) >= len(pvals) {
				return false
			}
			for _, v := range qvals {
				if !member(v) {
					return false
				}
			}
			return true
		case *ast.Rel:
			if qq.Op != token.EQ {
				return false
			}
			if l, ok := qq.Rhs.(*ast.Lit); ok {
				return member(l.Text)
			}
		}
	}
	return false
}

// numInterval derives the closed numeric interval a literal-only
// constraint admits: a Range with numeric bounds, an ordered relation,
// or an equality against a number. The open relational bounds (<, >)
// are tightened to the adjacent representable float, which is exact for
// the integer literals CPL specs use in practice.
func numInterval(p ast.Pred) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	num := func(e ast.Expr) (float64, bool) {
		l, isLit := e.(*ast.Lit)
		if !isLit || (l.Kind != token.INT && l.Kind != token.FLOAT) {
			return 0, false
		}
		v, err := strconv.ParseFloat(l.Text, 64)
		return v, err == nil
	}
	switch t := p.(type) {
	case *ast.Range:
		l, okLo := num(t.Lo)
		h, okHi := num(t.Hi)
		if !okLo || !okHi || l > h {
			return 0, 0, false
		}
		return l, h, true
	case *ast.Rel:
		v, isNum := num(t.Rhs)
		if !isNum {
			return 0, 0, false
		}
		switch t.Op {
		case token.GE:
			return v, hi, true
		case token.GT:
			return math.Nextafter(v, math.Inf(1)), hi, true
		case token.LE:
			return lo, v, true
		case token.LT:
			return lo, math.Nextafter(v, math.Inf(-1)), true
		case token.EQ:
			return v, v, true
		}
	}
	return 0, 0, false
}

func enumLiterals(e *ast.Enum) ([]string, bool) {
	out := make([]string, 0, len(e.Elems))
	for _, el := range e.Elems {
		l, ok := el.(*ast.Lit)
		if !ok {
			return nil, false
		}
		out = append(out, l.Text)
	}
	return out, true
}

// orderByPriority moves specs whose text mentions a priority key pattern
// (policy priority 'Fabric.*,Cluster.*') to the front, preserving relative
// order otherwise (§4.3 validation priority).
func orderByPriority(prog *Program) {
	pats := prog.Policies["priority"]
	if pats == "" {
		return
	}
	var keys []string
	for _, p := range strings.Split(pats, ",") {
		if p = strings.TrimSpace(p); p != "" {
			keys = append(keys, p)
		}
	}
	if len(keys) == 0 {
		return
	}
	var high, low []*Spec
	for _, s := range prog.Specs {
		matched := false
		for _, k := range keys {
			for _, d := range s.Domains {
				if r, ok := d.(*ast.Ref); ok && config.Glob(k, r.Pattern.String()) {
					matched = true
				}
			}
		}
		if matched {
			s.Priority = 1
			high = append(high, s)
		} else {
			low = append(low, s)
		}
	}
	prog.Specs = append(high, low...)
}
