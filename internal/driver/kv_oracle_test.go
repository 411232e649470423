package driver

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"confvalley/internal/config"
)

// kvOracle is the KV driver as it was before the index-walking scanner:
// strings.Split over a copy of the document, one key and one instance
// allocated per line. It is kept here, outside the binary, as the
// reference FuzzKV and the driver tests compare the scanner against. It
// shares the key grammar (config.ParseKey) with the driver, which
// TestParseKeyAgreesWithParsePattern holds to ParsePattern.
type kvOracle struct{}

func (kvOracle) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	var out []*config.Instance
	for ln, raw := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("kv: %s:%d: expected key=value, got %q", sourceName, ln+1, line)
		}
		keyStr := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		segs, err := scopeSegs(keyStr)
		if err != nil {
			return nil, fmt.Errorf("kv: %s:%d: %w", sourceName, ln+1, err)
		}
		out = append(out, &config.Instance{
			Key:    config.Key{Segs: segs},
			Value:  val,
			Source: sourceName,
			Line:   ln + 1,
		})
	}
	return out, nil
}

// diffKV holds the driver to the oracle on data: the same error, word for
// word, or the same instances — keys, values, sources and line numbers.
func diffKV(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := kvDriver{}.Parse(data, "fuzz-input")
	want, wantErr := kvOracle{}.Parse(data, "fuzz-input")
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("errors differ on %q:\n scanner: %v\n oracle:  %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("instances differ on %q:\n scanner: %v\n oracle:  %v", data, got, want)
	}
}

// diffProjected holds the projected parse to the full one on data, under
// the projection pats (one pattern per line; lines that do not parse, or
// carry variables, are dropped) and with and without a scope: the same
// error, word for word, or the full parse's instances that the
// projection keeps, field for field, and the full parse's count.
func diffProjected(t *testing.T, data []byte, pats string) {
	t.Helper()
	var ps []config.Pattern
	for _, line := range strings.Split(pats, "\n") {
		if p, err := config.ParsePattern(line); err == nil && !p.HasVars() {
			ps = append(ps, p)
		}
	}
	proj := NewProjection(ps)
	for _, scope := range []string{"", "Sc"} {
		got, parsed, gotErr := ownedInstances(context.Background(), "kv", bytes.Clone(data), "fuzz-input", scope, proj)
		full, _, wantErr := ownedInstances(context.Background(), "kv", bytes.Clone(data), "fuzz-input", scope, nil)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("scope %q, projection %q: errors differ on %q:\n projected: %v\n full:      %v", scope, pats, data, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		var want []*config.Instance
		for _, in := range full {
			if proj.Keeps(in.Key) {
				want = append(want, in)
			}
		}
		if parsed != len(full) || !reflect.DeepEqual(got, want) {
			t.Fatalf("scope %q, projection %q on %q: parsed %d of %d:\n projected: %v\n filtered:  %v",
				scope, pats, data, parsed, len(full), got, want)
		}
		diffPartition(t, data, scope, proj, got)
		diffPartition(t, data, scope, nil, full)
	}
}

// diffPartition holds the partition built from the classes a scan
// numbered (ParsePartition) to config.NewPartition over the same
// instances, which are want: the class IDs, their order, names and leaf
// index, the per-class slices and each instance's class number, all
// compared field for field by reflect.DeepEqual.
func diffPartition(t *testing.T, data []byte, scope string, proj *Projection, want []*config.Instance) {
	t.Helper()
	part, _, err := ParsePartition(context.Background(), "kv", bytes.Clone(data), "fuzz-input", scope, proj)
	if err != nil {
		t.Fatalf("scope %q on %q: ParsePartition failed where the parse did not: %v", scope, data, err)
	}
	if got := part.Instances(); !reflect.DeepEqual(got, want) {
		t.Fatalf("scope %q on %q: partition of instances\n %v\nwant\n %v", scope, data, got, want)
	}
	if len(want) == 0 {
		return // DeepEqual would tell an empty slice from a nil one
	}
	oracle := config.NewPartition(part.Instances())
	oracle.Instances() // has run on both, so the load orders' sync.Once agree too
	if !reflect.DeepEqual(part, oracle) {
		t.Fatalf("scope %q on %q: the scan's partition differs from NewPartition's:\n scan:   %+v\n oracle: %+v", scope, data, part, oracle)
	}
}

// filterOracle is the projection filter as it stood before it decided
// once per (prefix class, leaf): every key's names joined, each ended by
// NUL, into a buffer that keys one memo. It is kept verbatim as the
// oracle TestFilterMatchesOracle holds the filter to.
type filterOracle struct {
	p     *Projection
	scope []string
	memo  map[string]bool // key names, each ended by NUL -> kept
	buf   []byte
}

func (p *Projection) filterOracle(scope []config.Seg) *filterOracle {
	names := make([]string, len(scope))
	for i, s := range scope {
		names[i] = s.Name
	}
	return &filterOracle{p: p, scope: names, memo: make(map[string]bool)}
}

// keep reports whether the class of scope + segs is kept, deciding each
// class once. Names hold no NUL (config.CheckName), so ending each with
// one keeps the memo's keys apart.
func (f *filterOracle) keep(segs []config.Seg) bool {
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

// The filter's verdict per (prefix class, leaf), with the leaf asked
// last and the one asked after it tried first, is the oracle's per key, over generated projections and
// key sequences that revisit classes in runs and out of them, under a
// scope and without, and the number it gives a kept class names that
// class.
func TestFilterMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 1))
	names := []string{"A", "Ab", "B", "Cb", "A.B"}
	globs := []string{"*", "A*", "*b", "B", "Ab", "Sc"}
	for iter := 0; iter < 500; iter++ {
		var pats []config.Pattern
		for i := rng.IntN(4); i > 0; i-- {
			p := config.Pattern{Segs: make([]config.PatSeg, 1+rng.IntN(3))}
			for j := range p.Segs {
				p.Segs[j].Name = globs[rng.IntN(len(globs))]
			}
			pats = append(pats, p)
		}
		proj := NewProjection(pats)
		var scope []config.Seg
		if rng.IntN(2) == 0 {
			scope = []config.Seg{{Name: "Sc"}}
		}
		f, oracle := proj.filter(scope), proj.filterOracle(scope)
		var key []config.Seg
		for j := 0; j < 100; j++ {
			if len(key) == 0 || rng.IntN(3) == 0 {
				key = make([]config.Seg, 1+rng.IntN(3))
				for i := range key {
					key[i] = config.Seg{Name: names[rng.IntN(len(names))], Inst: "x"}
				}
			} else {
				key[len(key)-1].Name = names[rng.IntN(len(names))]
			}
			n := len(key)
			g := f.keep(f.class(key[:n-1]), key[n-1].Name)
			if got, want := g != dropped, oracle.keep(key); got != want {
				t.Fatalf("projection %v, scope %v, key %v: kept %t, oracle %t", pats, scope, config.Key{Segs: key}, got, want)
			}
			if g == dropped {
				continue
			}
			// A kept class's number names its class: scope, then the key's names.
			names := slices.Clone(oracle.scope)
			for _, s := range key {
				names = append(names, s.Name)
			}
			if !slices.Equal(f.kept[g], names) {
				t.Fatalf("projection %v, scope %v, key %v: numbered %d, which names %v", pats, scope, config.Key{Segs: key}, g, f.kept[g])
			}
		}
	}
}
