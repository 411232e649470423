package driver

import (
	"math/rand/v2"
	"testing"

	"confvalley/internal/config"
)

// TestProjectionMatchesClassProperty holds the one class-level match to
// its definition on generated patterns and keys: MatchKey implies
// MatchClass, MatchClass is MatchKey with the instance and ordinal
// constraints dropped, and a projection keeps a key exactly when one of
// its patterns matches the key's class so.
func TestProjectionMatchesClassProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(44, 1))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	names := []string{"A", "Ab", "B", "Cb"}
	globs := []string{"*", "A*", "*b", "A*b", "B", "Ab"}
	insts := []string{"", "x", "y1"}
	instGlobs := []string{"x", "y*", "*"}

	genPattern := func() config.Pattern {
		p := config.Pattern{Segs: make([]config.PatSeg, 1+rng.IntN(3))}
		for i := range p.Segs {
			s := &p.Segs[i]
			if rng.IntN(2) == 0 {
				s.Name = pick(names)
			} else {
				s.Name = pick(globs)
			}
			if rng.IntN(3) == 0 {
				s.Inst = pick(instGlobs)
			}
			if rng.IntN(4) == 0 {
				s.Index = 1 + rng.IntN(2)
			}
		}
		return p
	}
	genKey := func() config.Key {
		k := config.Key{Segs: make([]config.Seg, 1+rng.IntN(3))}
		for i := range k.Segs {
			k.Segs[i] = config.Seg{Name: pick(names), Inst: pick(insts), Index: rng.IntN(3)}
		}
		return k
	}
	// classMatch is the definition: the pattern, stripped of what it says
	// about instances and ordinals, matches the class's bare key.
	classMatch := func(p config.Pattern, k config.Key) bool {
		bare := config.Pattern{Segs: make([]config.PatSeg, len(p.Segs))}
		for i, s := range p.Segs {
			bare.Segs[i] = config.PatSeg{Name: s.Name}
		}
		class := config.Key{Segs: make([]config.Seg, len(k.Segs))}
		for i, s := range k.Segs {
			class.Segs[i] = config.Seg{Name: s.Name}
		}
		return bare.MatchKey(class)
	}
	classNames := func(k config.Key) []string {
		out := make([]string, len(k.Segs))
		for i, s := range k.Segs {
			out[i] = s.Name
		}
		return out
	}

	for iter := 0; iter < 2000; iter++ {
		pats := make([]config.Pattern, rng.IntN(4))
		for i := range pats {
			pats[i] = genPattern()
		}
		proj := NewProjection(pats)
		for j := 0; j < 20; j++ {
			k := genKey()
			kept := false
			for _, p := range pats {
				got, want := p.MatchClass(classNames(k)), classMatch(p, k)
				if got != want {
					t.Fatalf("%s.MatchClass(%s) = %v, want %v", p, k.ClassPath(), got, want)
				}
				if p.MatchKey(k) && !got {
					t.Fatalf("%s matches key %s but not its class", p, k)
				}
				kept = kept || want
			}
			if got := proj.Keeps(k); got != kept {
				t.Fatalf("projection of %v keeps %s = %v, want %v", pats, k, got, kept)
			}
		}
	}
}
