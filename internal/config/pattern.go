package config

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// PatSeg is one segment of a configuration notation pattern as written in
// CPL: a class name that may contain '*' wildcards, plus optional instance
// constraints.
type PatSeg struct {
	// Name is the class-name pattern; '*' matches any run of characters.
	Name string
	// NameVar is a variable in name position ("Fabric.$ParamName"):
	// §4.2.2 allows substitutable variables in both the scope and key
	// parts of a notation.
	NameVar string
	// Inst constrains the instance name; empty means "any instance".
	// It may itself contain '*' wildcards.
	Inst string
	// InstVar, when nonempty, is the name of a CPL variable (written
	// "Scope::$var") whose bound value constrains the instance name.
	InstVar string
	// Index constrains the 1-based ordinal ("Scope[2]"); 0 means any.
	Index int
	// IndexVar is a variable in index position ("Scope[$i]").
	IndexVar string
}

// String renders the pattern segment in CPL notation.
func (p PatSeg) String() string {
	s := p.Name
	if p.NameVar != "" {
		s = "$" + p.NameVar
	}
	switch {
	case p.InstVar != "":
		s += "::$" + p.InstVar
	case p.Inst != "":
		s += "::" + p.Inst
	}
	switch {
	case p.IndexVar != "":
		s += "[$" + p.IndexVar + "]"
	case p.Index > 0:
		s += "[" + strconv.Itoa(p.Index) + "]"
	}
	return s
}

// Pattern is a configuration notation: what "$Cloud.Tenant.SecretKey"
// denotes in a CPL specification. A one-segment pattern refers to a
// configuration class by its parameter name wherever it appears; a
// multi-segment pattern must match the full scope path.
type Pattern struct {
	Segs []PatSeg
}

// P builds a Pattern from textual segments, a convenience mirror of K.
// Segments use CPL syntax: "Cloud", "Cloud::CO2test2", "Cloud::$name",
// "Cloud[1]", "*IP".
func P(segs ...string) Pattern {
	pat := Pattern{Segs: make([]PatSeg, 0, len(segs))}
	for _, s := range segs {
		pat.Segs = append(pat.Segs, parsePatSeg(s))
	}
	return pat
}

// ParsePattern parses a dotted CPL notation such as
// "Cloud::$CloudName.Tenant.SecretKey".
func ParsePattern(s string) (Pattern, error) {
	if s == "" {
		return Pattern{}, fmt.Errorf("config: empty pattern")
	}
	parts := strings.Split(s, ".")
	pat := Pattern{Segs: make([]PatSeg, 0, len(parts))}
	for _, part := range parts {
		if part == "" {
			return Pattern{}, fmt.Errorf("config: empty segment in pattern %q", s)
		}
		pat.Segs = append(pat.Segs, parsePatSeg(part))
	}
	return pat, nil
}

func parsePatSeg(s string) PatSeg {
	var p PatSeg
	rest := s
	if i := strings.Index(rest, "::"); i >= 0 {
		p.Name = rest[:i]
		if strings.HasPrefix(p.Name, "$") {
			p.NameVar, p.Name = p.Name[1:], ""
		}
		rest = rest[i+2:]
		inst := rest
		if j := strings.IndexByte(rest, '['); j >= 0 {
			inst = rest[:j]
			rest = rest[j:]
		} else {
			rest = ""
		}
		if strings.HasPrefix(inst, "$") {
			p.InstVar = inst[1:]
		} else {
			p.Inst = inst
		}
	} else if j := strings.IndexByte(rest, '['); j >= 0 {
		p.Name = rest[:j]
		rest = rest[j:]
	} else {
		p.Name = rest
		rest = ""
	}
	if strings.HasPrefix(p.Name, "$") {
		p.NameVar, p.Name = p.Name[1:], ""
	}
	if strings.HasPrefix(rest, "[") && strings.HasSuffix(rest, "]") {
		idx := rest[1 : len(rest)-1]
		if strings.HasPrefix(idx, "$") {
			p.IndexVar = idx[1:]
		} else {
			p.Index = atoiOr0(idx)
		}
	}
	return p
}

// String renders the pattern in CPL notation.
func (p Pattern) String() string {
	parts := make([]string, len(p.Segs))
	for i, s := range p.Segs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ".")
}

// key is the pattern's identity for the memos that key on it (Query, the
// Delta's overlap memo): every field of every segment, each string led by
// its length, so two patterns share a key only when they are equal. The
// CPL rendering (String) is not injective: a segment name holding a '.'
// or "::", as a substituted instance name may, renders like more segments.
func (p Pattern) key() string {
	var scratch [renderScratch]byte
	b := scratch[:0]
	for _, s := range p.Segs {
		for _, f := range [...]string{s.Name, s.NameVar, s.Inst, s.InstVar, s.IndexVar} {
			b = binary.AppendUvarint(b, uint64(len(f)))
			b = append(b, f...)
		}
		b = binary.AppendVarint(b, int64(s.Index))
	}
	return string(b)
}

// Prefixed returns a new pattern with the given prefix segments prepended;
// used by namespace and compartment resolution.
func (p Pattern) Prefixed(prefix Pattern) Pattern {
	segs := make([]PatSeg, 0, len(prefix.Segs)+len(p.Segs))
	segs = append(segs, prefix.Segs...)
	segs = append(segs, p.Segs...)
	return Pattern{Segs: segs}
}

// HasVars reports whether any segment has an unsubstituted variable.
func (p Pattern) HasVars() bool {
	for _, s := range p.Segs {
		if s.NameVar != "" || s.InstVar != "" || s.IndexVar != "" {
			return true
		}
	}
	return false
}

// Vars returns the names of all variables appearing in the pattern.
func (p Pattern) Vars() []string {
	var out []string
	for _, s := range p.Segs {
		if s.NameVar != "" {
			out = append(out, s.NameVar)
		}
		if s.InstVar != "" {
			out = append(out, s.InstVar)
		}
		if s.IndexVar != "" {
			out = append(out, s.IndexVar)
		}
	}
	return out
}

// Substitute returns a copy of the pattern with variables replaced using
// the binding function. Unbound variables are left in place; callers that
// require full substitution should check HasVars afterwards.
func (p Pattern) Substitute(lookup func(name string) (string, bool)) Pattern {
	out := Pattern{Segs: make([]PatSeg, len(p.Segs))}
	copy(out.Segs, p.Segs)
	for i := range out.Segs {
		s := &out.Segs[i]
		if s.NameVar != "" {
			if v, ok := lookup(s.NameVar); ok {
				s.Name, s.NameVar = v, ""
			}
		}
		if s.InstVar != "" {
			if v, ok := lookup(s.InstVar); ok {
				s.Inst, s.InstVar = v, ""
			}
		}
		if s.IndexVar != "" {
			if v, ok := lookup(s.IndexVar); ok {
				if n, err := strconv.Atoi(v); err == nil {
					s.Index, s.IndexVar = n, ""
				}
			}
		}
	}
	return out
}

// MatchKey reports whether the pattern matches the concrete key.
// One-segment patterns are class references: they match by final segment.
// Multi-segment patterns must match the key segment-for-segment.
func (p Pattern) MatchKey(k Key) bool {
	if len(p.Segs) == 1 {
		if len(k.Segs) == 0 {
			return false
		}
		return p.Segs[0].matchSeg(k.Segs[len(k.Segs)-1])
	}
	if len(p.Segs) != len(k.Segs) {
		return false
	}
	for i, ps := range p.Segs {
		if !ps.matchSeg(k.Segs[i]) {
			return false
		}
	}
	return true
}

// MatchClass reports whether the pattern can match some key of the class
// with the given segment names: MatchKey's rule with instance and ordinal
// constraints ignored, so the leaf name for a one-segment pattern and
// every name at equal length otherwise. It is the one class-level match,
// a superset of MatchKey over the keys of the class, that projected
// ingest and the snapshot diff both read.
func (p Pattern) MatchClass(names []string) bool {
	if len(names) == 0 {
		return false
	}
	if len(p.Segs) == 1 {
		return Glob(p.Segs[0].Name, names[len(names)-1])
	}
	if len(p.Segs) != len(names) {
		return false
	}
	for i, s := range p.Segs {
		if !Glob(s.Name, names[i]) {
			return false
		}
	}
	return true
}

// namesOnly reports whether the pattern constrains segment names only —
// no instance name, no ordinal — so that MatchClass and MatchKey agree on
// every key of a class.
func (p Pattern) namesOnly() bool {
	for _, s := range p.Segs {
		if s.Inst != "" || s.Index > 0 {
			return false
		}
	}
	return true
}

// matchSeg reports whether the pattern segment matches a concrete segment.
// Unsubstituted variables match nothing.
func (p PatSeg) matchSeg(s Seg) bool {
	if p.NameVar != "" || p.InstVar != "" || p.IndexVar != "" {
		return false
	}
	if !Glob(p.Name, s.Name) {
		return false
	}
	if p.Inst != "" && !Glob(p.Inst, s.Inst) {
		return false
	}
	if p.Index > 0 && p.Index != s.Index {
		return false
	}
	return true
}

// Glob matches s against a pattern where '*' matches any (possibly empty)
// run of characters. Matching is case-sensitive; configuration names in
// cloud systems are conventionally cased consistently.
func Glob(pattern, s string) bool {
	if !strings.Contains(pattern, "*") {
		return pattern == s
	}
	parts := strings.Split(pattern, "*")
	// First fragment anchors at the start, last at the end.
	if !strings.HasPrefix(s, parts[0]) {
		return false
	}
	s = s[len(parts[0]):]
	last := parts[len(parts)-1]
	if !strings.HasSuffix(s, last) {
		return false
	}
	s = s[:len(s)-len(last)]
	for _, mid := range parts[1 : len(parts)-1] {
		if mid == "" {
			continue
		}
		i := strings.Index(s, mid)
		if i < 0 {
			return false
		}
		s = s[i+len(mid):]
	}
	return true
}
