// Package vtype implements ConfValley's configuration value type system.
//
// Configuration values arrive as strings. Predicates such as "int" or "ip"
// need to decide whether a string is a member of a type, and the inference
// engine needs to determine the most specific type shared by all instances
// of a configuration class. To support noisy data, types form a partial
// order (a lattice): for example Bool < Int < Float < String, and for any
// scalar T, T < List(T) < List(String) < String. The join (least upper
// bound) of the detected types of all samples is the inferred type; a join
// of String means "no useful type constraint" (§4.5 of the paper).
package vtype

import (
	"fmt"
	"strings"
)

// Kind enumerates the scalar type universe understood by ConfValley.
type Kind int

// Scalar kinds, roughly ordered from most to least specific. The numeric
// values are internal; use the lattice functions for ordering decisions.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt
	KindFloat
	KindPort
	KindIP
	KindIPRange
	KindCIDR
	KindMAC
	KindGUID
	KindURL
	KindPath
	KindHostname
	KindEmail
	KindVersion
	KindSize
	KindDuration
	KindString
	KindList // list element kind is carried separately in Type.Elem
)

var kindNames = map[Kind]string{
	KindInvalid:  "invalid",
	KindBool:     "bool",
	KindInt:      "int",
	KindFloat:    "float",
	KindPort:     "port",
	KindIP:       "ip",
	KindIPRange:  "iprange",
	KindCIDR:     "cidr",
	KindMAC:      "mac",
	KindGUID:     "guid",
	KindURL:      "url",
	KindPath:     "path",
	KindHostname: "hostname",
	KindEmail:    "email",
	KindVersion:  "version",
	KindSize:     "size",
	KindDuration: "duration",
	KindString:   "string",
	KindList:     "list",
}

// String returns the CPL keyword for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// KindFromName maps a CPL type keyword to its Kind. The second result is
// false for unknown names.
func KindFromName(name string) (Kind, bool) {
	for k, s := range kindNames {
		if s == name && k != KindInvalid && k != KindList {
			return k, true
		}
	}
	return KindInvalid, false
}

// Type is a possibly-parameterized type: a scalar kind, or a list of a
// scalar kind. List-of-list does not occur in configuration data and is
// collapsed to List(String).
type Type struct {
	Kind Kind
	Elem Kind // element kind when Kind == KindList, KindInvalid otherwise
}

// Scalar returns the Type for a scalar kind.
func Scalar(k Kind) Type { return Type{Kind: k} }

// ListOf returns the list type with the given element kind.
func ListOf(elem Kind) Type { return Type{Kind: KindList, Elem: elem} }

// TString is the top of the lattice: every value is a string.
var TString = Scalar(KindString)

// String renders the type in CPL syntax, e.g. "int" or "list(ip)".
func (t Type) String() string {
	if t.Kind == KindList {
		return "list(" + t.Elem.String() + ")"
	}
	return t.Kind.String()
}

// IsString reports whether t is the uninformative top type.
func (t Type) IsString() bool { return t.Kind == KindString }

// scalarParents maps each scalar kind to its immediate generalizations.
// The transitive closure of this relation plus reflexivity defines <=.
var scalarParents = map[Kind][]Kind{
	KindBool:     {KindString},
	KindPort:     {KindInt},
	KindInt:      {KindFloat},
	KindFloat:    {KindString},
	KindIP:       {KindHostname},
	KindIPRange:  {KindString},
	KindCIDR:     {KindString},
	KindMAC:      {KindString},
	KindGUID:     {KindString},
	KindURL:      {KindString},
	KindPath:     {KindString},
	KindHostname: {KindString},
	KindEmail:    {KindString},
	KindVersion:  {KindString},
	KindSize:     {KindString},
	KindDuration: {KindString},
	KindString:   nil,
}

// scalarLE reports whether a <= b in the scalar lattice.
func scalarLE(a, b Kind) bool {
	if a == b {
		return true
	}
	for _, p := range scalarParents[a] {
		if scalarLE(p, b) {
			return true
		}
	}
	return false
}

// scalarJoin returns the least upper bound of two scalar kinds.
func scalarJoin(a, b Kind) Kind {
	if scalarLE(a, b) {
		return b
	}
	if scalarLE(b, a) {
		return a
	}
	// Walk a's ancestors from most specific upward, returning the first
	// that covers b. The chains are short, so the quadratic walk is fine.
	for _, p := range scalarParents[a] {
		j := scalarJoin(p, b)
		if j != KindInvalid {
			return j
		}
	}
	return KindString
}

// LE reports whether a is at least as specific as b (a <= b). The paper's
// "ordering on types" (§4.5): a value set mixing int and list-of-int is
// inferred as list-of-int, because int <= list(int).
func LE(a, b Type) bool {
	switch {
	case a.Kind == KindList && b.Kind == KindList:
		return scalarLE(a.Elem, b.Elem)
	case a.Kind == KindList:
		return b.IsString()
	case b.Kind == KindList:
		// A scalar is a one-element list of anything covering it.
		return scalarLE(a.Kind, b.Elem)
	default:
		return scalarLE(a.Kind, b.Kind)
	}
}

// Join returns the least upper bound of two types: the most specific type
// that both a and b conform to.
func Join(a, b Type) Type {
	switch {
	case LE(a, b):
		return b
	case LE(b, a):
		return a
	case a.Kind == KindList && b.Kind == KindList:
		return ListOf(scalarJoin(a.Elem, b.Elem))
	case a.Kind == KindList:
		return ListOf(scalarJoin(a.Elem, b.Kind))
	case b.Kind == KindList:
		return ListOf(scalarJoin(a.Kind, b.Elem))
	default:
		return Scalar(scalarJoin(a.Kind, b.Kind))
	}
}

// listSeparators are accepted list delimiters, in detection priority order.
// Azure-style configuration uses both ';' and ',' heavily.
var listSeparators = []string{";", ","}

// Detect returns the most specific Type the raw string conforms to.
// An empty string detects as String (emptiness is a separate constraint).
func Detect(raw string) Type {
	s := strings.TrimSpace(raw)
	if s == "" {
		return TString
	}
	if k := detectScalar(s); k != KindString {
		return Scalar(k)
	}
	for _, sep := range listSeparators {
		if !strings.Contains(s, sep) {
			continue
		}
		if elem := detectList(s, sep); elem != KindString {
			return ListOf(elem)
		}
	}
	return TString
}

// detectList joins the kinds of the sep-separated parts of s, or returns
// KindString when a part is blank or plain text.
func detectList(s, sep string) Kind {
	elem := KindInvalid
	for more := true; more; {
		var p string
		p, s, more = strings.Cut(s, sep)
		p = strings.TrimSpace(p)
		if p == "" {
			return KindString
		}
		k := detectScalar(p)
		if k == KindString {
			return KindString
		}
		if elem == KindInvalid {
			elem = k
		} else {
			elem = scalarJoin(elem, k)
		}
	}
	return elem
}

// detectScalar classifies a single non-list token.
func detectScalar(s string) Kind {
	switch {
	case IsBool(s):
		return KindBool
	case IsInt(s):
		if IsPort(s) {
			return KindPort
		}
		return KindInt
	case IsFloat(s):
		return KindFloat
	case IsIP(s):
		return KindIP
	case IsIPRange(s):
		return KindIPRange
	case IsCIDR(s):
		return KindCIDR
	case IsMAC(s):
		return KindMAC
	case IsGUID(s):
		return KindGUID
	case IsURL(s):
		return KindURL
	case IsSize(s):
		return KindSize
	case IsDuration(s):
		return KindDuration
	case IsVersion(s):
		return KindVersion
	case IsEmail(s):
		return KindEmail
	case IsPathLike(s):
		return KindPath
	case IsHostname(s):
		return KindHostname
	default:
		return KindString
	}
}

// Conforms reports whether the raw string is a member of the given type.
// This is the membership test used by CPL type predicates: a value conforms
// to "float" if it parses as a float, including plain integers.
func Conforms(raw string, t Type) bool {
	s := strings.TrimSpace(raw)
	if t.Kind == KindList {
		if s == "" {
			return false
		}
		for _, sep := range listSeparators {
			if allConform(s, sep, t.Elem) {
				return true
			}
			if strings.Contains(s, sep) {
				return false
			}
		}
		return false
	}
	return conformsScalar(s, t.Kind)
}

// allConform reports whether every sep-separated part of s conforms to k.
func allConform(s, sep string, k Kind) bool {
	for more := true; more; {
		var p string
		p, s, more = strings.Cut(s, sep)
		if !conformsScalar(strings.TrimSpace(p), k) {
			return false
		}
	}
	return true
}

func conformsScalar(s string, k Kind) bool {
	switch k {
	case KindBool:
		return IsBool(s)
	case KindInt:
		return IsInt(s)
	case KindPort:
		return IsPort(s)
	case KindFloat:
		return IsFloat(s)
	case KindIP:
		return IsIP(s)
	case KindIPRange:
		return IsIPRange(s)
	case KindCIDR:
		return IsCIDR(s)
	case KindMAC:
		return IsMAC(s)
	case KindGUID:
		return IsGUID(s)
	case KindURL:
		return IsURL(s)
	case KindPath:
		return IsPathLike(s)
	case KindHostname:
		return IsHostname(s)
	case KindEmail:
		return IsEmail(s)
	case KindVersion:
		return IsVersion(s)
	case KindSize:
		return IsSize(s)
	case KindDuration:
		return IsDuration(s)
	case KindString:
		return true
	default:
		return false
	}
}
