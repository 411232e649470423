// Package token defines the lexical tokens of CPL, ConfValley's
// configuration predicate language (§4.2 of the paper).
package token

import "fmt"

// Kind identifies a lexical token class.
type Kind int

// Token kinds. CPL accepts both ASCII spellings (->, <=, all, exists) and
// the paper's mathematical notation (→, ≤, ∀, ∃).
const (
	EOF Kind = iota
	NEWLINE

	IDENT  // MonitorNodeHealth, *IP, a_b2
	INT    // 42, 0x1F
	FLOAT  // 3.14
	STRING // 'single' or "double" quoted

	DOLLAR // $
	AT     // @
	HASH   // #

	ARROW  // -> or →
	ASSIGN // :=
	DCOLON // ::
	DOT    // .
	COMMA  // ,

	LPAREN // (
	RPAREN // )
	LBRACK // [
	RBRACK // ]
	LBRACE // {
	RBRACE // }

	AMP   // &
	PIPE  // |
	TILDE // ~

	EQ  // ==
	NEQ // != or ≠
	LE  // <= or ≤
	GE  // >= or ≥
	LT  // <
	GT  // >

	PLUS  // +
	MINUS // -
	STAR  // * (standalone: multiplication; inside a word: wildcard)
	SLASH // /

	// Keywords.
	IF
	ELSE
	NAMESPACE
	COMPARTMENT
	LET
	LOAD
	INCLUDE
	GET
	POLICY
	AS
	ALL    // ∀ quantifier
	EXISTS // ∃ quantifier (also the path-existence predicate, by position)
	ONE    // ∃! quantifier
)

var kindNames = map[Kind]string{
	EOF: "EOF", NEWLINE: "newline",
	IDENT: "identifier", INT: "integer", FLOAT: "float", STRING: "string",
	DOLLAR: "$", AT: "@", HASH: "#",
	ARROW: "->", ASSIGN: ":=", DCOLON: "::", DOT: ".", COMMA: ",",
	LPAREN: "(", RPAREN: ")", LBRACK: "[", RBRACK: "]", LBRACE: "{", RBRACE: "}",
	AMP: "&", PIPE: "|", TILDE: "~",
	EQ: "==", NEQ: "!=", LE: "<=", GE: ">=", LT: "<", GT: ">",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/",
	IF: "if", ELSE: "else", NAMESPACE: "namespace", COMPARTMENT: "compartment",
	LET: "let", LOAD: "load", INCLUDE: "include", GET: "get", POLICY: "policy",
	AS: "as", ALL: "all", EXISTS: "exists", ONE: "one",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

// Keywords maps keyword spellings to kinds.
var Keywords = map[string]Kind{
	"if": IF, "else": ELSE,
	"namespace": NAMESPACE, "compartment": COMPARTMENT,
	"let": LET, "load": LOAD, "include": INCLUDE, "get": GET, "policy": POLICY,
	"as": AS, "all": ALL, "exists": EXISTS, "one": ONE,
}

// Pos locates a token in its source file.
type Pos struct {
	Line int // 1-based
	Col  int // 1-based, in bytes
}

// String renders "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string // raw text; for STRING, the unquoted content
	Pos  Pos
}

// String renders the token for error messages.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, FLOAT:
		return fmt.Sprintf("%q", t.Text)
	case STRING:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Kind.String()
	}
}

// IsRelOp reports whether the kind is a relational operator.
func (k Kind) IsRelOp() bool {
	switch k {
	case EQ, NEQ, LE, GE, LT, GT:
		return true
	}
	return false
}

// IsQuantifier reports whether the kind is a quantifier keyword.
func (k Kind) IsQuantifier() bool { return k == ALL || k == EXISTS || k == ONE }
