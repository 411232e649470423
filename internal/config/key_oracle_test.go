package config

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// appendKeyOracle is AppendKey as it stood before each segment was read in
// one pass: strings.Cut on the '.', strings.Index for the "::", a second
// scan for the '[' and a third for a NUL byte. It is kept verbatim as the
// oracle FuzzAppendKey holds AppendKey to.
func appendKeyOracle(dst []Seg, s string) ([]Seg, error) {
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

// FuzzAppendKey holds AppendKey to the oracle: the same segments, into the
// same caller-supplied room, or the same error text.
func FuzzAppendKey(f *testing.F) {
	for _, s := range []string{
		"Fabric", "Cluster::c1.Node::n3[2].Timeout", "Cloud[2].Tenant::SLB.SecretKey",
		"A:b::c", "A:::b", "A::b::c[2]", "::", ":", "A[1]::b.C", "A::b[1]x", "A[1][2]", "A[x].B[]",
		"", ".", "a..b", "a.", ".a", "$x", "A.$x", "A::$i.B", "A::$.B", "A[$n].B", "A[$].B", "$x::y",
		"a\x00b.c", "A::x\x00y.B", "A[\x00].B", "A\x00::b", "A[99999999999999999999].B", "A[-1].B",
		"é.世界", "a.\xff",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		room := []Seg{{Name: "kept"}}
		got, gotErr := AppendKey(room, s)
		want, wantErr := appendKeyOracle(room[:1:1], s)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("AppendKey(%q): error %v, oracle %v", s, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("AppendKey(%q) = %+v, oracle %+v", s, got, want)
		}
	})
}
