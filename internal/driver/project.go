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
// The match is at class level and a superset of config.Pattern.MatchKey:
// a one-segment pattern keeps every key whose leaf name it globs, a
// longer pattern every key of its length whose names it globs segment by
// segment; instance and ordinal constraints are ignored. A store holding
// the kept instances therefore answers every query for those patterns
// exactly as the full store does.
type Projection struct {
	id     string
	leaves []string   // one-segment patterns' names
	paths  [][]string // longer patterns' names, one slice per pattern
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
		names := make([]string, len(pat.Segs))
		for i, seg := range pat.Segs {
			names[i] = seg.Name
		}
		if len(names) == 1 {
			p.leaves = append(p.leaves, names[0])
		} else {
			p.paths = append(p.paths, names)
		}
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

// keeps is the match on a class's segment names.
func (p *Projection) keeps(names []string) bool {
	if len(names) == 0 {
		return false
	}
	leaf := names[len(names)-1]
	for _, l := range p.leaves {
		if config.Glob(l, leaf) {
			return true
		}
	}
	for _, path := range p.paths {
		if len(path) == len(names) && globAll(path, names) {
			return true
		}
	}
	return false
}

func globAll(pats, names []string) bool {
	for i, pat := range pats {
		if !config.Glob(pat, names[i]) {
			return false
		}
	}
	return true
}

// filter is one parse's view of a projection: the source's scope
// prefix, which every key is matched under, and the verdicts so far by
// class. It belongs to the parse, so the projection it reads stays
// shared and unlocked.
type filter struct {
	p     *Projection
	scope []string
	memo  map[string]bool // key names, each ended by NUL -> kept
	buf   []byte
}

func (p *Projection) filter(scope []config.Seg) *filter {
	names := make([]string, len(scope))
	for i, s := range scope {
		names[i] = s.Name
	}
	return &filter{p: p, scope: names, memo: make(map[string]bool)}
}

// keep reports whether the class of scope + segs is kept, deciding each
// class once. Names hold no NUL (config.CheckName), so ending each with
// one keeps the memo's keys apart.
func (f *filter) keep(segs []config.Seg) bool {
	f.buf = f.buf[:0]
	for _, s := range segs {
		f.buf = append(append(f.buf, s.Name...), 0)
	}
	v, ok := f.memo[string(f.buf)]
	if !ok {
		names := slices.Clip(f.scope)
		for _, s := range segs {
			names = append(names, s.Name)
		}
		v = f.p.keeps(names)
		f.memo[string(f.buf)] = v
	}
	return v
}

// Projects reports whether the named format's driver applies
// projections — only kv's does; every other one parses in full.
func Projects(format string) bool {
	d, _ := Lookup(format)
	_, ok := d.(kvDriver)
	return ok
}
