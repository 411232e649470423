package driver

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
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
		got, parsed, gotErr := ParseScopedOwned(context.Background(), "kv", bytes.Clone(data), "fuzz-input", scope, proj)
		full, _, wantErr := ParseScopedOwned(context.Background(), "kv", bytes.Clone(data), "fuzz-input", scope, nil)
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
	}
}
