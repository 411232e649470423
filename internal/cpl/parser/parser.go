// Package parser implements the recursive-descent parser for CPL.
//
// The grammar follows Listing 4 of the paper, concretized as documented in
// DESIGN.md. The trickiest property of CPL syntax is that '->' both pipes
// a domain through transformations and connects the domain to its final
// predicate; the parser resolves each '->' by classifying what follows it
// (a transformation call continues the pipeline, anything else starts the
// predicate). Likewise '[a, b]' is a tuple-building transformation when
// another '->' follows and a range predicate when terminal.
package parser

import (
	"fmt"

	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/cpl/lexer"
	"confvalley/internal/cpl/token"
	"confvalley/internal/vtype"
)

// IsTransform decides whether a name refers to a transformation function;
// the compiler wires this to the live transform registry so plug-in
// transforms parse correctly. The default covers the built-ins.
var IsTransform = func(name string) bool { return builtinTransforms[name] }

var builtinTransforms = map[string]bool{
	"split": true, "at": true, "lower": true, "upper": true, "trim": true,
	"len": true, "count": true, "union": true, "sum": true, "min": true,
	"max": true, "abs": true, "replace": true, "basename": true,
	"foreach": true, "distinct": true, "first": true, "last": true,
}

// primitives are the niladic predicate primitives besides type names.
var primitives = map[string]bool{
	"nonempty": true, "unique": true, "consistent": true, "ordered": true,
	"reachable": true, "exists": true,
}

// Error is a parse error with source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("cpl:%s: %s", e.Pos, e.Msg) }

// MaxDepth bounds how deeply a specification may nest, as encoding/json
// bounds a document. Every walk over the AST — the parser's own descent,
// the compiler, lint, ast.Inspect, ast.Render, lowering, the reference
// interpreter — recurses once per level, and no recover catches a stack
// overflow, so a deeper spec is a positioned parse error instead.
const MaxDepth = 10000

// Parse parses a complete CPL source file into statements.
func Parse(src string) ([]ast.Stmt, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var out []ast.Stmt
	for {
		p.skipNewlines()
		if p.at(token.EOF) {
			return out, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// ParsePredicate parses a standalone predicate expression, used by the
// inference engine's round-trip tests and the interactive console.
func ParsePredicate(src string) (ast.Pred, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	pred, err := p.predicate()
	if err != nil {
		return nil, err
	}
	p.skipNewlines()
	if !p.at(token.EOF) {
		return nil, p.errf("unexpected %s after predicate", p.cur())
	}
	return pred, nil
}

type parser struct {
	toks []token.Token
	i    int
	// depth is the nesting level of the node being parsed; deepest is the
	// deepest level reached since the innermost open operator chain began.
	depth, deepest int
}

// descend enters one level of nesting at the current token; the caller
// ascends when it leaves.
func (p *parser) descend() error {
	p.depth++
	return p.reach(p.depth)
}

func (p *parser) ascend() { p.depth-- }

// reach records that the tree under construction nests d levels deep.
func (p *parser) reach(d int) error {
	p.deepest = max(p.deepest, d)
	if d > MaxDepth {
		return p.errf("specification nests deeper than %d levels", MaxDepth)
	}
	return nil
}

// chain tracks a left-deep operator chain (a | b | c, $A + $B - $C):
// each operator pushes the chain so far one level down, so the first
// operand ends up deepest, and the next operand is parsed one level
// below the chain's start.
type chain struct{ depth, deepest int }

func (p *parser) openChain() chain {
	c := chain{p.depth, p.deepest}
	p.deepest = p.depth
	return c
}

func (p *parser) link(c chain) error {
	p.depth = c.depth + 1
	return p.reach(p.deepest + 1)
}

func (p *parser) closeChain(c chain) {
	p.depth = c.depth
	p.deepest = max(p.deepest, c.deepest)
}

func (p *parser) cur() token.Token     { return p.toks[p.i] }
func (p *parser) at(k token.Kind) bool { return p.toks[p.i].Kind == k }

func (p *parser) next() token.Token {
	t := p.toks[p.i]
	if t.Kind != token.EOF {
		p.i++
	}
	return t
}

func (p *parser) expect(k token.Kind) (token.Token, error) {
	if !p.at(k) {
		return token.Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) skipNewlines() {
	for p.at(token.NEWLINE) {
		p.i++
	}
}

// peekPast returns the first token kind at or after index i that is not a
// newline.
func (p *parser) peekPastNewlines() token.Kind {
	return p.peekPastNewlinesTok().Kind
}

func (p *parser) peekPastNewlinesTok() token.Token {
	j := p.i
	for j < len(p.toks) && p.toks[j].Kind == token.NEWLINE {
		j++
	}
	return p.toks[j]
}

// acceptContinuation consumes newlines if the next meaningful token is k,
// then consumes k. It lets pipelines and boolean chains span lines.
func (p *parser) acceptContinuation(k token.Kind) bool {
	if p.at(k) {
		p.i++
		return true
	}
	if p.at(token.NEWLINE) && p.peekPastNewlines() == k {
		p.skipNewlines()
		p.i++
		return true
	}
	return false
}

// ---- Statements ----

func (p *parser) statement() (ast.Stmt, error) {
	switch p.cur().Kind {
	case token.LOAD:
		return p.loadStmt()
	case token.INCLUDE:
		pos := p.next().Pos
		path, err := p.expect(token.STRING)
		if err != nil {
			return nil, err
		}
		st := &ast.IncludeStmt{Path: path.Text}
		st.P = pos
		return st, p.endStatement(pos)
	case token.LET:
		return p.letStmt()
	case token.POLICY:
		pos := p.next().Pos
		name, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		val, err := p.expect(token.STRING)
		if err != nil {
			return nil, err
		}
		st := &ast.PolicyStmt{Name: name.Text, Value: val.Text}
		st.P = pos
		return st, p.endStatement(pos)
	case token.GET:
		pos := p.next().Pos
		d, err := p.domain()
		if err != nil {
			return nil, err
		}
		st := &ast.GetStmt{Domain: d}
		st.P = pos
		return st, p.endStatement(pos)
	case token.NAMESPACE, token.COMPARTMENT:
		return p.blockStmt()
	case token.IF:
		return p.ifStmt()
	default:
		return p.specStmt()
	}
}

// endStatement requires a statement boundary (newline, EOF or closing
// brace) after a completed statement.
func (p *parser) endStatement(pos token.Pos) error {
	switch p.cur().Kind {
	case token.NEWLINE, token.EOF, token.RBRACE:
		return nil
	}
	return p.errf("unexpected %s after statement starting at %s", p.cur(), pos)
}

func (p *parser) loadStmt() (ast.Stmt, error) {
	pos := p.next().Pos
	drv, err := p.expect(token.STRING)
	if err != nil {
		return nil, err
	}
	src, err := p.expect(token.STRING)
	if err != nil {
		return nil, err
	}
	st := &ast.LoadStmt{Driver: drv.Text, Source: src.Text}
	st.P = pos
	if p.at(token.AS) {
		p.next()
		pat, err := p.qid()
		if err != nil {
			return nil, err
		}
		st.Scope = pat.String()
	}
	return st, p.endStatement(pos)
}

func (p *parser) letStmt() (ast.Stmt, error) {
	pos := p.next().Pos
	name, err := p.expect(token.IDENT)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.ASSIGN); err != nil {
		return nil, err
	}
	pred, err := p.predicate()
	if err != nil {
		return nil, err
	}
	st := &ast.LetStmt{Name: name.Text, Pred: pred}
	st.P = pos
	return st, p.endStatement(pos)
}

func (p *parser) blockStmt() (ast.Stmt, error) {
	kw := p.next()
	kind := ast.BlockNamespace
	if kw.Kind == token.COMPARTMENT {
		kind = ast.BlockCompartment
	}
	scope, err := p.qid()
	if err != nil {
		return nil, err
	}
	body, err := p.blockBody()
	if err != nil {
		return nil, err
	}
	st := &ast.BlockStmt{Kind: kind, Scope: scope, Body: body}
	st.P = kw.Pos
	return st, nil
}

// blockBody parses "{ statements }" or a single statement.
func (p *parser) blockBody() ([]ast.Stmt, error) {
	if err := p.descend(); err != nil {
		return nil, err
	}
	defer p.ascend()
	if p.peekPastNewlines() == token.LBRACE {
		p.skipNewlines()
		p.next() // {
		var body []ast.Stmt
		for {
			p.skipNewlines()
			if p.at(token.RBRACE) {
				p.next()
				return body, nil
			}
			if p.at(token.EOF) {
				return nil, p.errf("unexpected EOF inside block")
			}
			s, err := p.statement()
			if err != nil {
				return nil, err
			}
			body = append(body, s)
		}
	}
	p.skipNewlines()
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	return []ast.Stmt{s}, nil
}

func (p *parser) ifStmt() (ast.Stmt, error) {
	ifPos := p.cur().Pos
	p.next() // if
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	cond, err := p.condSpec()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.RPAREN); err != nil {
		return nil, err
	}
	thenBody, err := p.blockBody()
	if err != nil {
		return nil, err
	}
	st := &ast.IfStmt{Cond: cond, Then: thenBody}
	st.P = ifPos
	if p.at(token.ELSE) || (p.at(token.NEWLINE) && p.peekPastNewlines() == token.ELSE) {
		p.skipNewlines()
		p.next() // else
		elseBody, err := p.blockBody()
		if err != nil {
			return nil, err
		}
		st.Else = elseBody
	}
	return st, nil
}

// condSpec parses the inside of an if(...) condition: a quantified
// domain/predicate statement.
func (p *parser) condSpec() (*ast.SpecStmt, error) {
	st, err := p.specCore()
	if err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) specStmt() (ast.Stmt, error) {
	st, err := p.specCore()
	if err != nil {
		return nil, err
	}
	st.Text = ast.Render(st)
	return st, p.endStatement(st.Pos())
}

// specCore parses [quantifier] domain (-> predicate | relop expr).
func (p *parser) specCore() (*ast.SpecStmt, error) {
	startPos := p.cur().Pos
	quant := ast.QuantAll
	if p.cur().Kind.IsQuantifier() {
		switch p.next().Kind {
		case token.EXISTS:
			quant = ast.QuantExists
		case token.ONE:
			quant = ast.QuantOne
		}
	}
	d, pred, err := p.domainThenPredicate()
	if err != nil {
		return nil, err
	}
	st := &ast.SpecStmt{Quant: quant, Domain: d, Pred: pred}
	st.P = startPos
	// Optional custom error message (§4.4): ... message 'text', possibly
	// on a continuation line.
	if msgTok := p.peekPastNewlinesTok(); msgTok.Kind == token.IDENT && msgTok.Text == "message" {
		p.skipNewlines()
		p.next()
		msg, err := p.expect(token.STRING)
		if err != nil {
			return nil, err
		}
		st.Message = msg.Text
	}
	st.Text = ast.Render(st)
	return st, nil
}

// domainThenPredicate parses a domain pipeline and its terminal predicate.
func (p *parser) domainThenPredicate() (ast.Domain, ast.Pred, error) {
	d, err := p.domain()
	if err != nil {
		return nil, nil, err
	}
	// Statement-level relation: $A <= $B.
	if p.cur().Kind.IsRelOp() {
		op := p.next().Kind
		rhs, err := p.exprArg()
		if err != nil {
			return nil, nil, err
		}
		return d, &ast.Rel{Op: op, Rhs: rhs}, nil
	}
	// Pipeline: consume "-> step" while steps are transforms; the first
	// non-transform element after an arrow is the predicate.
	var steps []*ast.Step
	for {
		if !p.acceptContinuation(token.ARROW) {
			return nil, nil, p.errf("expected '->' or relation after domain, found %s", p.cur())
		}
		if step, ok, err := p.tryStep(); err != nil {
			return nil, nil, err
		} else if ok {
			steps = append(steps, step)
			continue
		}
		pred, err := p.predicate()
		if err != nil {
			return nil, nil, err
		}
		if len(steps) > 0 {
			d = &ast.Pipe{Src: d, Steps: steps}
		}
		return d, pred, nil
	}
}

// tryStep attempts to parse a pipeline transformation step at the current
// position. It returns ok=false (with no tokens consumed) when what
// follows is a predicate instead.
func (p *parser) tryStep() (*ast.Step, bool, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.IDENT:
		if IsTransform(p.cur().Text) && p.toks[p.i+1].Kind == token.LPAREN {
			t, err := p.transformCall()
			if err != nil {
				return nil, false, err
			}
			return &ast.Step{P: pos, T: t}, true, nil
		}
		return nil, false, nil
	case token.LBRACK:
		// Tuple transform if an arrow follows the matching bracket;
		// range predicate otherwise.
		if p.bracketIsTuple() {
			t, err := p.tupleTransform()
			if err != nil {
				return nil, false, err
			}
			return &ast.Step{P: pos, T: t}, true, nil
		}
		return nil, false, nil
	case token.IF:
		// Guarded transform: if (pred) transform. If the body is not a
		// transform this is a terminal IfPred, so backtrack.
		save := *p
		p.next() // if
		if _, err := p.expect(token.LPAREN); err != nil {
			*p = save
			return nil, false, nil
		}
		guard, err := p.predicate()
		if err != nil {
			*p = save
			return nil, false, nil
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			*p = save
			return nil, false, nil
		}
		if p.at(token.IDENT) && IsTransform(p.cur().Text) && p.toks[p.i+1].Kind == token.LPAREN {
			t, err := p.transformCall()
			if err != nil {
				return nil, false, err
			}
			return &ast.Step{P: pos, Guard: guard, T: t}, true, nil
		}
		if p.at(token.LBRACK) && p.bracketIsTuple() {
			t, err := p.tupleTransform()
			if err != nil {
				return nil, false, err
			}
			return &ast.Step{P: pos, Guard: guard, T: t}, true, nil
		}
		*p = save
		return nil, false, nil
	}
	return nil, false, nil
}

// bracketIsTuple looks ahead from a '[' to its matching ']' and reports
// whether an arrow follows (tuple transform) or not (range predicate).
func (p *parser) bracketIsTuple() bool {
	depth := 0
	for j := p.i; j < len(p.toks); j++ {
		switch p.toks[j].Kind {
		case token.LBRACK:
			depth++
		case token.RBRACK:
			depth--
			if depth == 0 {
				for k := j + 1; k < len(p.toks); k++ {
					if p.toks[k].Kind == token.NEWLINE {
						continue
					}
					return p.toks[k].Kind == token.ARROW
				}
				return false
			}
		case token.EOF:
			return false
		}
	}
	return false
}

func (p *parser) transformCall() (*ast.Transform, error) {
	if err := p.descend(); err != nil {
		return nil, err
	}
	defer p.ascend()
	name := p.next() // IDENT, verified by caller
	t := &ast.Transform{P: name.Pos, Name: name.Text}
	if _, err := p.expect(token.LPAREN); err != nil {
		return nil, err
	}
	if p.at(token.RPAREN) {
		p.next()
		return t, nil
	}
	for {
		arg, err := p.exprArg()
		if err != nil {
			return nil, err
		}
		t.Args = append(t.Args, arg)
		if p.at(token.COMMA) {
			p.next()
			continue
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return t, nil
	}
}

func (p *parser) tupleTransform() (*ast.Transform, error) {
	open := p.next() // [
	t := &ast.Transform{P: open.Pos, Name: "tuple"}
	for {
		arg, err := p.exprArg()
		if err != nil {
			return nil, err
		}
		t.Args = append(t.Args, arg)
		if p.at(token.COMMA) {
			p.next()
			continue
		}
		if _, err := p.expect(token.RBRACK); err != nil {
			return nil, err
		}
		return t, nil
	}
}

// ---- Domains ----

// domain parses a domain expression with arithmetic operators; pipeline
// steps are handled by domainThenPredicate because only there can the
// transform/predicate ambiguity be resolved.
func (p *parser) domain() (ast.Domain, error) {
	return p.domainAdd()
}

func (p *parser) domainAdd() (ast.Domain, error) {
	c := p.openChain()
	defer p.closeChain(c)
	l, err := p.domainMul()
	if err != nil {
		return nil, err
	}
	for p.at(token.PLUS) || p.at(token.MINUS) {
		op := p.next().Kind
		if err := p.link(c); err != nil {
			return nil, err
		}
		r, err := p.domainMul()
		if err != nil {
			return nil, err
		}
		l = &ast.BinaryDomain{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) domainMul() (ast.Domain, error) {
	c := p.openChain()
	defer p.closeChain(c)
	l, err := p.domainPrimary()
	if err != nil {
		return nil, err
	}
	for p.at(token.STAR) || p.at(token.SLASH) {
		// A '*' directly before '.' or '::' is a wildcard qid start of a
		// later statement, never multiplication at this point (we already
		// have a complete domain and '*' would begin a new statement); in
		// practice ambiguity does not arise because statements are
		// newline-separated.
		op := p.next().Kind
		if err := p.link(c); err != nil {
			return nil, err
		}
		r, err := p.domainPrimary()
		if err != nil {
			return nil, err
		}
		l = &ast.BinaryDomain{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) domainPrimary() (ast.Domain, error) {
	switch p.cur().Kind {
	case token.DOLLAR:
		pos := p.next().Pos
		if p.at(token.IDENT) && p.cur().Text == "_" {
			p.next()
			pv := &ast.PipeVar{}
			setDomainPos(pv, pos)
			return pv, nil
		}
		pat, err := p.qid()
		if err != nil {
			return nil, err
		}
		r := &ast.Ref{Pattern: pat}
		setDomainPos(r, pos)
		return r, nil
	case token.HASH:
		pos := p.next().Pos
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		if _, err := p.expect(token.LBRACK); err != nil {
			return nil, err
		}
		scope, err := p.qid()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RBRACK); err != nil {
			return nil, err
		}
		inner, err := p.domain()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.HASH); err != nil {
			return nil, err
		}
		c := &ast.CompartmentDomain{Scope: scope, Inner: inner}
		setDomainPos(c, pos)
		return c, nil
	case token.LPAREN:
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		d, err := p.domain()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return d, nil
	case token.IDENT:
		// Prefix transform style: lower($X).
		if IsTransform(p.cur().Text) && p.toks[p.i+1].Kind == token.LPAREN {
			pos := p.cur().Pos
			t, err := p.transformCall()
			if err != nil {
				return nil, err
			}
			if len(t.Args) == 0 {
				return nil, p.errf("transform %s needs a domain argument in prefix form", t.Name)
			}
			first, ok := t.Args[0].(*ast.DomainExpr)
			if !ok {
				return nil, p.errf("first argument of prefix transform %s must be a domain", t.Name)
			}
			t.Args = t.Args[1:]
			pipe := &ast.Pipe{Src: first.D, Steps: []*ast.Step{{P: pos, T: t}}}
			setDomainPos(pipe, pos)
			return pipe, nil
		}
	}
	return nil, p.errf("expected a domain ($key, #[scope] ... #, or transform(...)), found %s", p.cur())
}

// setDomainPos back-fills the position on embedded domainBase nodes; the
// ast package keeps the base struct unexported fields simple.
func setDomainPos(d ast.Domain, pos token.Pos) {
	switch t := d.(type) {
	case *ast.Ref:
		setPos(&t.P, pos)
	case *ast.PipeVar:
		setPos(&t.P, pos)
	case *ast.Pipe:
		setPos(&t.P, pos)
	case *ast.BinaryDomain:
		setPos(&t.P, pos)
	case *ast.CompartmentDomain:
		setPos(&t.P, pos)
	}
}

func setPos(p *token.Pos, pos token.Pos) { *p = pos }

// qid parses a qualified configuration reference:
// seg(.seg)*, seg = name[::inst][index].
func (p *parser) qid() (config.Pattern, error) {
	var pat config.Pattern
	for {
		seg, err := p.qidSeg()
		if err != nil {
			return config.Pattern{}, err
		}
		pat.Segs = append(pat.Segs, seg)
		if p.at(token.DOT) {
			p.next()
			continue
		}
		return pat, nil
	}
}

func (p *parser) qidSeg() (config.PatSeg, error) {
	var seg config.PatSeg
	switch p.cur().Kind {
	case token.IDENT:
		seg.Name = p.next().Text
	case token.STAR:
		p.next()
		seg.Name = "*"
	case token.DOLLAR:
		// Variable in name position: $Fabric.$ParamName (§4.2.2 allows
		// substitutable variables in both the scope and key parts).
		p.next()
		id, err := p.expect(token.IDENT)
		if err != nil {
			return seg, err
		}
		seg.NameVar = id.Text
	default:
		return seg, p.errf("expected a configuration name, found %s", p.cur())
	}
	if p.at(token.DCOLON) {
		p.next()
		switch p.cur().Kind {
		case token.DOLLAR:
			p.next()
			id, err := p.expect(token.IDENT)
			if err != nil {
				return seg, err
			}
			seg.InstVar = id.Text
		case token.IDENT:
			seg.Inst = p.next().Text
		case token.STRING:
			seg.Inst = p.next().Text
		case token.STAR:
			p.next()
			seg.Inst = "*"
		default:
			return seg, p.errf("expected an instance name after '::', found %s", p.cur())
		}
	}
	if p.at(token.LBRACK) {
		p.next()
		switch p.cur().Kind {
		case token.INT:
			t := p.next()
			n, ok := vtype.ParseInt(t.Text)
			if !ok || n <= 0 {
				return seg, &Error{Pos: t.Pos, Msg: "instance index must be a positive integer"}
			}
			seg.Index = int(n)
		case token.DOLLAR:
			p.next()
			id, err := p.expect(token.IDENT)
			if err != nil {
				return seg, err
			}
			seg.IndexVar = id.Text
		default:
			return seg, p.errf("expected an index after '[', found %s", p.cur())
		}
		if _, err := p.expect(token.RBRACK); err != nil {
			return seg, err
		}
	}
	return seg, nil
}

// ---- Predicates ----

func (p *parser) predicate() (ast.Pred, error) {
	return p.orPred()
}

func (p *parser) orPred() (ast.Pred, error) {
	c := p.openChain()
	defer p.closeChain(c)
	l, err := p.andPred()
	if err != nil {
		return nil, err
	}
	for p.acceptContinuation(token.PIPE) {
		if err := p.link(c); err != nil {
			return nil, err
		}
		r, err := p.andPred()
		if err != nil {
			return nil, err
		}
		or := &ast.Or{L: l, R: r}
		setPredPos(or, l.Pos())
		l = or
	}
	return l, nil
}

func (p *parser) andPred() (ast.Pred, error) {
	c := p.openChain()
	defer p.closeChain(c)
	l, err := p.notPred()
	if err != nil {
		return nil, err
	}
	for p.acceptContinuation(token.AMP) {
		if err := p.link(c); err != nil {
			return nil, err
		}
		r, err := p.notPred()
		if err != nil {
			return nil, err
		}
		and := &ast.And{L: l, R: r}
		setPredPos(and, l.Pos())
		l = and
	}
	return l, nil
}

func (p *parser) notPred() (ast.Pred, error) {
	if p.at(token.TILDE) {
		pos := p.cur().Pos
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		x, err := p.notPred()
		if err != nil {
			return nil, err
		}
		n := &ast.Not{X: x}
		setPredPos(n, pos)
		return n, nil
	}
	return p.primaryPred()
}

func (p *parser) primaryPred() (ast.Pred, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.LPAREN:
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		inner, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		return inner, nil
	case token.AT:
		p.next()
		id, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		m := &ast.MacroRef{Name: id.Text}
		setPredPos(m, pos)
		return m, nil
	case token.IF:
		p.next()
		if err := p.descend(); err != nil {
			return nil, err
		}
		defer p.ascend()
		if _, err := p.expect(token.LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.predicate()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		then, err := p.predicate()
		if err != nil {
			return nil, err
		}
		ip := &ast.IfPred{Cond: cond, Then: then}
		if p.at(token.ELSE) {
			p.next()
			els, err := p.predicate()
			if err != nil {
				return nil, err
			}
			ip.Else = els
		}
		setPredPos(ip, pos)
		return ip, nil
	case token.LBRACK:
		p.next()
		lo, err := p.exprArg()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.COMMA); err != nil {
			return nil, err
		}
		hi, err := p.exprArg()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RBRACK); err != nil {
			return nil, err
		}
		r := &ast.Range{Lo: lo, Hi: hi}
		setPredPos(r, pos)
		return r, nil
	case token.LBRACE:
		p.next()
		var elems []ast.Expr
		for {
			e, err := p.exprArg()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			if p.at(token.COMMA) {
				p.next()
				continue
			}
			break
		}
		if _, err := p.expect(token.RBRACE); err != nil {
			return nil, err
		}
		e := &ast.Enum{Elems: elems}
		setPredPos(e, pos)
		return e, nil
	case token.EQ, token.NEQ, token.LE, token.GE, token.LT, token.GT:
		op := p.next().Kind
		rhs, err := p.exprArg()
		if err != nil {
			return nil, err
		}
		r := &ast.Rel{Op: op, Rhs: rhs}
		setPredPos(r, pos)
		return r, nil
	case token.DOLLAR:
		// A domain in predicate position: relation with implicit current
		// element is not meaningful, but "$_ == $X" style chains reach
		// here when the pipeline variable starts the predicate.
		d, err := p.domainPrimary()
		if err != nil {
			return nil, err
		}
		if !p.cur().Kind.IsRelOp() {
			return nil, p.errf("expected a relation after domain in predicate position, found %s", p.cur())
		}
		op := p.next().Kind
		rhs, err := p.exprArg()
		if err != nil {
			return nil, err
		}
		if _, isPipeVar := d.(*ast.PipeVar); isPipeVar {
			r := &ast.Rel{Op: op, Rhs: rhs}
			setPredPos(r, pos)
			return r, nil
		}
		// Relation between two embedded domains: express as Rel with the
		// left side wrapped — the compiler pairs them.
		r := &ast.Rel{Op: op, Rhs: rhs}
		setPredPos(r, pos)
		return &ast.And{L: mustEmbedded(d, pos), R: r}, nil
	case token.ALL, token.EXISTS, token.ONE:
		kw := p.next()
		// Quantifier when a predicate follows; the bare primitive
		// "exists" (path existence) otherwise.
		if p.startsPredicate() {
			q := ast.QuantExists
			switch kw.Kind {
			case token.ALL:
				q = ast.QuantAll
			case token.ONE:
				q = ast.QuantOne
			}
			if err := p.descend(); err != nil {
				return nil, err
			}
			defer p.ascend()
			x, err := p.notPred()
			if err != nil {
				return nil, err
			}
			qp := &ast.QuantPred{Q: q, X: x}
			setPredPos(qp, pos)
			return qp, nil
		}
		if kw.Kind == token.EXISTS {
			pr := &ast.Prim{Name: "exists"}
			setPredPos(pr, pos)
			return pr, nil
		}
		return nil, &Error{Pos: kw.Pos, Msg: fmt.Sprintf("quantifier %q must be followed by a predicate", kw.Text)}
	case token.IDENT:
		return p.identPred()
	}
	return nil, p.errf("expected a predicate, found %s", p.cur())
}

// mustEmbedded converts a domain in predicate position into a pseudo
// predicate via an equality marker; used only for the rare "$A == $B"
// inside a predicate chain. The compiler rejects other shapes.
func mustEmbedded(d ast.Domain, pos token.Pos) ast.Pred {
	c := &ast.Call{Name: "__domain_lhs", Args: []ast.Expr{wrapDomain(d, pos)}}
	setPredPos(c, pos)
	return c
}

func wrapDomain(d ast.Domain, pos token.Pos) ast.Expr {
	de := &ast.DomainExpr{D: d}
	setExprPos(de, pos)
	return de
}

// startsPredicate reports whether the current token can begin a predicate.
func (p *parser) startsPredicate() bool {
	switch p.cur().Kind {
	case token.LBRACK, token.LBRACE, token.LPAREN, token.TILDE, token.AT,
		token.EQ, token.NEQ, token.LE, token.GE, token.LT, token.GT,
		token.IDENT, token.DOLLAR, token.IF:
		return true
	}
	return false
}

func (p *parser) identPred() (ast.Pred, error) {
	t := p.next()
	pos := t.Pos
	name := t.Text
	// list(elem) parameterized type.
	if name == "list" && p.at(token.LPAREN) {
		p.next()
		elemTok, err := p.expect(token.IDENT)
		if err != nil {
			return nil, err
		}
		elem, ok := vtype.KindFromName(elemTok.Text)
		if !ok {
			return nil, &Error{Pos: elemTok.Pos, Msg: fmt.Sprintf("unknown element type %q", elemTok.Text)}
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		tp := &ast.TypePred{T: vtype.ListOf(elem)}
		setPredPos(tp, pos)
		return tp, nil
	}
	if name == "match" && p.at(token.LPAREN) {
		p.next()
		pat, err := p.expect(token.STRING)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RPAREN); err != nil {
			return nil, err
		}
		m := &ast.Match{Pattern: pat.Text}
		setPredPos(m, pos)
		return m, nil
	}
	if k, ok := vtype.KindFromName(name); ok && !p.at(token.LPAREN) {
		tp := &ast.TypePred{T: vtype.Scalar(k)}
		setPredPos(tp, pos)
		return tp, nil
	}
	if primitives[name] && !p.at(token.LPAREN) {
		pr := &ast.Prim{Name: name}
		setPredPos(pr, pos)
		return pr, nil
	}
	// Extension predicate call, with or without arguments.
	c := &ast.Call{Name: name}
	if p.at(token.LPAREN) {
		p.next()
		for !p.at(token.RPAREN) {
			a, err := p.exprArg()
			if err != nil {
				return nil, err
			}
			c.Args = append(c.Args, a)
			if p.at(token.COMMA) {
				p.next()
			}
		}
		p.next() // )
	}
	setPredPos(c, pos)
	return c, nil
}

func setPredPos(pr ast.Pred, pos token.Pos) {
	switch t := pr.(type) {
	case *ast.And:
		setPos(&t.P, pos)
	case *ast.Or:
		setPos(&t.P, pos)
	case *ast.Not:
		setPos(&t.P, pos)
	case *ast.QuantPred:
		setPos(&t.P, pos)
	case *ast.IfPred:
		setPos(&t.P, pos)
	case *ast.TypePred:
		setPos(&t.P, pos)
	case *ast.Prim:
		setPos(&t.P, pos)
	case *ast.Match:
		setPos(&t.P, pos)
	case *ast.Range:
		setPos(&t.P, pos)
	case *ast.Enum:
		setPos(&t.P, pos)
	case *ast.Rel:
		setPos(&t.P, pos)
	case *ast.MacroRef:
		setPos(&t.P, pos)
	case *ast.Call:
		setPos(&t.P, pos)
	}
}

func setExprPos(e ast.Expr, pos token.Pos) {
	switch t := e.(type) {
	case *ast.Lit:
		setPos(&t.P, pos)
	case *ast.DomainExpr:
		setPos(&t.P, pos)
	}
}

// ---- Expressions ----

// exprArg parses an argument expression: literal, $ref, $_, or a
// transformation applied to the current element (at(0) inside a tuple).
func (p *parser) exprArg() (ast.Expr, error) {
	pos := p.cur().Pos
	switch p.cur().Kind {
	case token.STRING, token.INT, token.FLOAT:
		t := p.next()
		l := &ast.Lit{Kind: t.Kind, Text: t.Text}
		setExprPos(l, pos)
		return l, nil
	case token.MINUS:
		p.next()
		num := p.cur()
		if num.Kind != token.INT && num.Kind != token.FLOAT {
			return nil, p.errf("expected a number after '-', found %s", p.cur())
		}
		p.next()
		l := &ast.Lit{Kind: num.Kind, Text: "-" + num.Text}
		setExprPos(l, pos)
		return l, nil
	case token.DOLLAR:
		d, err := p.domainPrimary()
		if err != nil {
			return nil, err
		}
		// Pipelines nest inside argument position:
		// union($Pool.Members -> split(';')).
		var steps []*ast.Step
		for p.at(token.ARROW) && p.toks[p.i+1].Kind == token.IDENT &&
			IsTransform(p.toks[p.i+1].Text) && p.toks[p.i+2].Kind == token.LPAREN {
			p.next() // ->
			tpos := p.cur().Pos
			tr, err := p.transformCall()
			if err != nil {
				return nil, err
			}
			steps = append(steps, &ast.Step{P: tpos, T: tr})
		}
		if len(steps) > 0 {
			pipe := &ast.Pipe{Src: d, Steps: steps}
			setDomainPos(pipe, pos)
			d = pipe
		}
		return wrapDomain(d, pos), nil
	case token.IDENT:
		if IsTransform(p.cur().Text) && p.toks[p.i+1].Kind == token.LPAREN {
			t, err := p.transformCall()
			if err != nil {
				return nil, err
			}
			// Prefix style when the first argument is a real domain
			// ("count(split($MacRange, ';'))"); otherwise the transform
			// applies to the current pipeline element ("at(0)").
			src := ast.Domain(&ast.PipeVar{})
			if len(t.Args) > 0 {
				if de, ok := t.Args[0].(*ast.DomainExpr); ok {
					if _, isPV := de.D.(*ast.PipeVar); !isPV {
						src = de.D
						t.Args = t.Args[1:]
					}
				}
			}
			pipe := &ast.Pipe{Src: src, Steps: []*ast.Step{{P: pos, T: t}}}
			setDomainPos(pipe, pos)
			return wrapDomain(pipe, pos), nil
		}
		// A bare identifier argument is treated as a string literal; this
		// is convenient for enum members written without quotes.
		t := p.next()
		l := &ast.Lit{Kind: token.STRING, Text: t.Text}
		setExprPos(l, pos)
		return l, nil
	}
	return nil, p.errf("expected an expression, found %s", p.cur())
}
