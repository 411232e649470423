package driver

import (
	"bytes"
	"fmt"
	"strings"

	"confvalley/internal/config"
)

// iniDriver handles INI files. A section header names a dotted scope path
// ("[Fabric.Controller]"), optionally with instance names in CPL notation
// ("[Cluster::East1]"). Keys outside any section are top-level parameters.
// Repeating a section accumulates into the same scope; repeating a key in
// one section creates additional instances of the same class.
type iniDriver struct{}

func init() { Register(iniDriver{}) }

func (iniDriver) Name() string { return "ini" }

func (iniDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	var out []*config.Instance
	var scope []config.Seg
	lines := strings.Split(string(data), "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || line[0] == '#' || line[0] == ';' {
			continue
		}
		if line[0] == '[' {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("ini: %s:%d: malformed section header %q", sourceName, ln+1, line)
			}
			header := strings.TrimSpace(line[1 : len(line)-1])
			if header == "" {
				scope = nil
				continue
			}
			segs, err := scopeSegs(header)
			if err != nil {
				return nil, fmt.Errorf("ini: %s:%d: %w", sourceName, ln+1, err)
			}
			scope = segs
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("ini: %s:%d: expected key=value, got %q", sourceName, ln+1, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if key == "" {
			return nil, fmt.Errorf("ini: %s:%d: empty key", sourceName, ln+1)
		}
		if err := config.CheckName(key); err != nil {
			return nil, fmt.Errorf("ini: %s:%d: %w", sourceName, ln+1, err)
		}
		val = unquoteINI(val)
		segs := make([]config.Seg, 0, len(scope)+1)
		segs = append(segs, scope...)
		segs = append(segs, config.Seg{Name: key})
		out = append(out, &config.Instance{
			Key:    config.Key{Segs: segs},
			Value:  val,
			Source: sourceName,
			Line:   ln + 1,
		})
	}
	return out, nil
}

// unquoteINI strips exactly one balanced pair of surrounding double
// quotes. Trimming every leading/trailing quote mangles values that
// legitimately contain quotes: `""` (the quoted empty string) became
// empty-of-empty, and `"a""b"` lost its outer pair and one inner quote.
// A value that is not wrapped in a balanced pair is left untouched.
func unquoteINI(val string) string {
	if len(val) >= 2 && val[0] == '"' && val[len(val)-1] == '"' {
		return val[1 : len(val)-1]
	}
	return val
}

// kvDriver handles flat key-value stores: one "dotted.key = value" per
// line. The dotted key may use full CPL instance notation
// ("Cluster::c1.Node::n3.HeartbeatTimeout = 30").
type kvDriver struct{}

func init() { Register(kvDriver{}) }

func (kvDriver) Name() string { return "kv" }

func (d kvDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	return d.ParseOwned(bytes.Clone(data), sourceName)
}

// ParseOwned walks data in place, line by line: key segment names and
// values of the returned instances are substrings of it.
func (d kvDriver) ParseOwned(data []byte, sourceName string) ([]*config.Instance, error) {
	ins, _, err := d.parseProjected(data, sourceName, nil)
	return ins, err
}

// parseProjected is the scanner behind ParseOwned: with a filter it
// still reads and checks every line, parsing each key into one scratch
// slice, so a document fails with the same error whatever the
// projection, but carves key room and an instance only for the lines
// whose class f keeps. parsed counts every instance line, kept or not.
func (kvDriver) parseProjected(data []byte, sourceName string, f *filter) (ins []*config.Instance, parsed int, err error) {
	s := borrow(data)
	var out slabs
	var scratch []config.Seg
	for ln, pos := 1, 0; pos <= len(s); ln++ {
		end := len(s)
		if i := strings.IndexByte(s[pos:], '\n'); i >= 0 {
			end = pos + i
		}
		line := strings.TrimSpace(s[pos:end])
		pos = end + 1
		if line == "" || line[0] == '#' {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, 0, fmt.Errorf("kv: %s:%d: expected key=value, got %q", sourceName, ln, line)
		}
		keyStr := strings.TrimSpace(line[:eq])
		if scratch, err = config.AppendKey(scratch[:0], keyStr); err != nil {
			return nil, 0, fmt.Errorf("kv: %s:%d: %w", sourceName, ln, badScope(keyStr, err))
		}
		parsed++
		if f != nil && !f.keep(scratch) {
			continue
		}
		// Room for exactly the key's segments.
		segs := out.key(len(scratch))
		copy(segs, scratch)
		out.add(config.Instance{
			Key:    config.Key{Segs: segs},
			Value:  strings.TrimSpace(line[eq+1:]),
			Source: sourceName,
			Line:   ln,
		})
	}
	return out.instances(), parsed, nil
}

// Reparse re-parses data against base, a document ParseOwned parsed into
// ins (Reparser).
func (kvDriver) Reparse(base []byte, ins []*config.Instance, data []byte) ([]*config.Instance, bool) {
	return reparse(borrow(base), borrow(data), ins, kvValueEnd)
}

// kvValueEnd reads a changed value as ParseOwned reads any value: the new
// line trimmed, then its part behind the first '=' trimmed. The line's
// bytes before the value must be the old line's, so its key is too, and
// the value must start where the walk expects it, so a value that would
// now trim differently declines.
func kvValueEnd(base, doc string, s, at int) (int, bool) {
	from := strings.LastIndexByte(base[:s], '\n') + 1
	lineAt := strings.LastIndexByte(doc[:at], '\n') + 1
	if doc[lineAt:at] != base[from:s] {
		return 0, false
	}
	end := len(doc)
	if i := strings.IndexByte(doc[at:], '\n'); i >= 0 {
		end = at + i
	}
	line := strings.TrimSpace(doc[lineAt:end])
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return 0, false
	}
	v := strings.TrimSpace(line[eq+1:])
	if off, ok := offsetIn(doc, v); !ok || off != at {
		return 0, false
	}
	return at + len(v), true
}
