// Package config implements ConfValley's unified configuration
// representation (§4.2.2 of the paper).
//
// Every configuration instance, regardless of the source format it was
// loaded from, is identified by a fully-qualified Key: a sequence of
// segments describing the scopes it lives under, ending with the parameter
// name. A segment carries the class name ("Cloud"), and, when the scope is
// replicated, the instance name ("Cloud::East1Storage1") and its ordinal
// position among same-named siblings ("Cloud[1]").
//
// The class of an instance is the sequence of segment names only
// ("CloudGroup.Cloud.Tenant.MonitorNodeHealth"); CPL specifications are
// written against classes and the Store discovers all matching instances.
package config

import (
	"fmt"
	"strconv"
	"strings"
)

// Seg is one segment of a concrete instance key.
type Seg struct {
	// Name is the class name of this scope or parameter.
	Name string
	// Inst is the instance name when the underlying source names its
	// scope instances (e.g. <Cloud Name="East1Storage1">); empty for
	// anonymous or singleton scopes.
	Inst string
	// Index is the 1-based ordinal of this instance among siblings with
	// the same Name under the same parent instance; 0 when the segment
	// is not replicated.
	Index int
}

// String renders the segment in CPL's fully-qualified notation.
func (s Seg) String() string {
	var scratch [renderScratch]byte
	return string(s.appendTo(scratch[:0]))
}

// appendTo appends the segment's rendering to b: the one place the
// notation is spelled, shared by every rendering of a key.
func (s Seg) appendTo(b []byte) []byte {
	b = append(b, s.Name...)
	if s.Inst != "" {
		b = append(b, "::"...)
		b = append(b, s.Inst...)
	}
	if s.Index > 0 {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(s.Index), 10)
		b = append(b, ']')
	}
	return b
}

// renderScratch sizes the stack buffer a key is rendered into before the
// single string allocation; a longer key spills to the heap and is still
// rendered correctly.
const renderScratch = 192

// Key is a concrete, fully-qualified configuration instance key.
type Key struct {
	Segs []Seg
}

// K builds a Key from alternating name/instance information; it is a
// convenience for tests and generators. Each element is either "Name",
// "Name::Inst", or "Name[2]".
func K(segs ...string) Key {
	k := Key{Segs: make([]Seg, 0, len(segs))}
	for _, s := range segs {
		k.Segs = append(k.Segs, parseSeg(s))
	}
	return k
}

// ParseKey parses a dotted notation that names one concrete scope or
// parameter, such as "Fabric::inst1.Timeout" — ParsePattern's grammar
// with variables and empty names rejected.
func ParseKey(s string) (Key, error) {
	segs, err := AppendKey(make([]Seg, 0, strings.Count(s, ".")+1), s)
	return Key{Segs: segs}, err
}

// AppendKey is ParseKey into storage the caller supplies: it appends the
// strings.Count(s, ".")+1 segments of s to dst and returns the extended
// slice, or nil and ParseKey's error. The segments' strings are
// substrings of s. Flat-source drivers call it once per line with room
// carved from a slab, so it parses each segment straight into a Seg, in
// one pass and with no allocation.
func AppendKey(dst []Seg, s string) ([]Seg, error) {
	if s == "" {
		return nil, fmt.Errorf("config: empty key")
	}
	for rest, more := s, true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ".")
		// parsePatSeg's grammar: Name, then "::Inst", then "[Index]"; a
		// '$' opens a variable wherever it starts a part, and a lone '$'
		// names none (that part is left empty).
		var seg Seg
		name, idx := part, ""
		if i := strings.Index(part, "::"); i >= 0 {
			name, seg.Inst = part[:i], part[i+2:]
			if j := strings.IndexByte(seg.Inst, '['); j >= 0 {
				seg.Inst, idx = seg.Inst[:j], seg.Inst[j:]
			}
			if strings.HasPrefix(seg.Inst, "$") {
				if len(seg.Inst) > 1 {
					return nil, fmt.Errorf("config: key %q must not contain variables", s)
				}
				seg.Inst = ""
			}
		} else if j := strings.IndexByte(part, '['); j >= 0 {
			name, idx = part[:j], part[j:]
		}
		if len(idx) >= 2 && idx[len(idx)-1] == ']' {
			if n := idx[1 : len(idx)-1]; !strings.HasPrefix(n, "$") {
				seg.Index = atoiOr0(n)
			} else if len(n) > 1 {
				return nil, fmt.Errorf("config: key %q must not contain variables", s)
			}
		}
		if name == "" || name[0] == '$' {
			// "A..B", and a name variable like "$x": either would produce an
			// unaddressable instance.
			return nil, fmt.Errorf("config: key %q has an empty segment", s)
		}
		if hasClassSep(name) {
			return nil, fmt.Errorf("config: key %q has a NUL byte in a name", s)
		}
		seg.Name = name
		dst = append(dst, seg)
	}
	return dst, nil
}

// CheckName refuses a scope or parameter name that a driver read from a
// document and the store could not index: one holding classSep, which
// would let two different name sequences share one class.
func CheckName(name string) error {
	if hasClassSep(name) {
		return fmt.Errorf("config: name %q has a NUL byte", name)
	}
	return nil
}

func parseSeg(s string) Seg {
	var seg Seg
	if i := strings.Index(s, "::"); i >= 0 {
		seg.Name = s[:i]
		rest := s[i+2:]
		if j := strings.IndexByte(rest, '['); j >= 0 {
			seg.Inst = rest[:j]
			seg.Index = atoiOr0(strings.TrimSuffix(rest[j+1:], "]"))
		} else {
			seg.Inst = rest
		}
		return seg
	}
	if j := strings.IndexByte(s, '['); j >= 0 && strings.HasSuffix(s, "]") {
		seg.Name = s[:j]
		seg.Index = atoiOr0(s[j+1 : len(s)-1])
		return seg
	}
	seg.Name = s
	return seg
}

func atoiOr0(s string) int {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return v
}

// String renders the full key, segments joined with dots.
func (k Key) String() string { return k.PrefixString(len(k.Segs)) }

// ClassPath returns the class identity of the key: segment names only,
// joined with dots.
func (k Key) ClassPath() string { return joinNames(k, '.') }

// joinNames joins the key's segment names with sep in one allocation.
func joinNames(k Key, sep byte) string {
	var scratch [renderScratch]byte
	return string(appendNames(scratch[:0], k, sep))
}

// appendNames appends the key's segment names, joined with sep, to b.
func appendNames(b []byte, k Key, sep byte) []byte {
	for i, s := range k.Segs {
		if i > 0 {
			b = append(b, sep)
		}
		b = append(b, s.Name...)
	}
	return b
}

// Leaf returns the final segment name — the parameter name.
func (k Key) Leaf() string {
	if len(k.Segs) == 0 {
		return ""
	}
	return k.Segs[len(k.Segs)-1].Name
}

// PrefixString returns the canonical rendering of the first n segments
// (all of them when n exceeds the key). It identifies the compartment
// instance a key belongs to.
func (k Key) PrefixString(n int) string {
	var scratch [renderScratch]byte
	return string(k.appendPrefix(scratch[:0], n))
}

// appendPrefix appends PrefixString(n) to b.
func (k Key) appendPrefix(b []byte, n int) []byte {
	if n > len(k.Segs) {
		n = len(k.Segs)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, '.')
		}
		b = k.Segs[i].appendTo(b)
	}
	return b
}

// Append returns a new key with an extra segment; the receiver is unchanged.
func (k Key) Append(seg Seg) Key {
	segs := make([]Seg, len(k.Segs)+1)
	copy(segs, k.Segs)
	segs[len(k.Segs)] = seg
	return Key{Segs: segs}
}

// Instance is a single configuration instance: a fully-qualified key, its
// raw string value, and provenance for error reporting.
type Instance struct {
	Key    Key
	Value  string
	Source string // originating file or endpoint
	Line   int    // line in the source, 0 if unknown
}

// String renders "key = value" for diagnostics.
func (in *Instance) String() string {
	return fmt.Sprintf("%s = %q", in.Key.String(), in.Value)
}
