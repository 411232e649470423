package driver

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"

	"confvalley/internal/config"
)

// Projection is the set of configuration classes a program can read,
// handed to a driver so that it builds keys and instances for those
// classes only (DESIGN.md §5, "Projected ingest"). It is built once per
// program from the program's discovery patterns and is immutable, so
// any number of concurrent parses share one.
//
// The match is config.Pattern.MatchClass, the class-level superset of
// MatchKey: a store holding the kept instances therefore answers every
// query for those patterns exactly as the full store does.
type Projection struct {
	id   string
	pats []config.Pattern // deduplicated
}

// NewProjection builds the projection keeping every class that one of
// pats can match. Patterns must carry no variables. Its identity is a
// digest of the deduplicated, sorted pattern strings, so two programs
// that read the same patterns share one.
func NewProjection(pats []config.Pattern) *Projection {
	strs := make([]string, 0, len(pats))
	p := &Projection{}
	seen := make(map[string]bool, len(pats))
	for _, pat := range pats {
		s := pat.String()
		if seen[s] {
			continue
		}
		seen[s] = true
		strs = append(strs, s)
		p.pats = append(p.pats, pat)
	}
	slices.Sort(strs)
	sum := sha256.Sum256([]byte(strings.Join(strs, "\n")))
	p.id = hex.EncodeToString(sum[:])
	return p
}

// ID is the projection's identity; "" for a nil projection, which keeps
// everything. A parse retained under one identity is never served to a
// load under another.
func (p *Projection) ID() string {
	if p == nil {
		return ""
	}
	return p.id
}

// Keeps reports whether the projection keeps the class of key k.
func (p *Projection) Keeps(k config.Key) bool {
	names := make([]string, len(k.Segs))
	for i, s := range k.Segs {
		names[i] = s.Name
	}
	return p.keeps(names)
}

// keeps reports whether some pattern matches the class with these
// segment names; a nil projection keeps every class.
func (p *Projection) keeps(names []string) bool {
	if p == nil {
		return true
	}
	for _, pat := range p.pats {
		if pat.MatchClass(names) {
			return true
		}
	}
	return false
}

// filter is one parse's view of a projection: the source's scope
// prefix, which every key is matched under, and the verdicts so far, one
// per (class of a key's prefix, leaf name). A kept class is a number,
// given in the order its first line was kept, so the parse hands the
// store its classes decided (config.NewPartitionOf). It belongs to the
// parse, so the projection it reads stays shared and unlocked.
type filter struct {
	p       *Projection // nil keeps every class
	scope   []string
	classes map[string]*prefixClass // prefix names, each ended by NUL
	buf     []byte
	// kept[g] is the segment names of kept class g.
	kept [][]string
	// The last question and its answer: a document written parameter by
	// parameter asks the same one of the next line, under another
	// instance of the same class.
	last     *prefixClass
	lastLeaf string
	lastG    int32
}

// dropped is the class number of a class the projection drops.
const dropped = -1

// prefixClass is the class of a key's prefix under the scope — its
// segment names — and the filter's answers so far by leaf name: the
// class number, or dropped.
type prefixClass struct {
	names  []string
	leaves map[string]int32
}

func (p *Projection) filter(scope []config.Seg) *filter {
	names := make([]string, len(scope))
	for i, s := range scope {
		names[i] = s.Name
	}
	return &filter{p: p, scope: names, classes: make(map[string]*prefixClass)}
}

// class returns the class of a key prefix, by its names. Names hold no
// NUL (config.CheckName), so ending each with one keeps the map's keys
// apart.
func (f *filter) class(prefix []config.Seg) *prefixClass {
	if c := f.last; c != nil && namesAre(c.names[len(f.scope):], prefix) {
		return c // the last question's class: lines of one class come in runs
	}
	f.buf = f.buf[:0]
	for _, s := range prefix {
		f.buf = append(append(f.buf, s.Name...), 0)
	}
	c, ok := f.classes[string(f.buf)]
	if !ok {
		names := slices.Clip(f.scope)
		for _, s := range prefix {
			names = append(names, s.Name)
		}
		c = &prefixClass{names: slices.Clip(names), leaves: make(map[string]int32)}
		f.classes[string(f.buf)] = c
	}
	return c
}

// namesAre reports whether the segments carry these names.
func namesAre(names []string, segs []config.Seg) bool {
	if len(names) != len(segs) {
		return false
	}
	for i, s := range segs {
		if names[i] != s.Name {
			return false
		}
	}
	return true
}

// keep returns the number of the class of a key under prefix class c
// with this leaf, or dropped, deciding each (class, leaf) once and
// numbering a class when its first line is kept.
func (f *filter) keep(c *prefixClass, leaf string) int32 {
	if c == f.last && leaf == f.lastLeaf {
		return f.lastG
	}
	g, ok := c.leaves[leaf]
	if !ok {
		names := append(c.names, leaf)
		g = dropped
		if f.p.keeps(names) {
			g = int32(len(f.kept))
			f.kept = append(f.kept, names)
		}
		c.leaves[leaf] = g
	}
	f.last, f.lastLeaf, f.lastG = c, leaf, g
	return g
}

// Projects reports whether the named format's driver applies
// projections — only kv's does; every other one parses in full.
func Projects(format string) bool {
	d, _ := Lookup(format)
	_, ok := d.(kvDriver)
	return ok
}
