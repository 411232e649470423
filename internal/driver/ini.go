package driver

import (
	"bytes"
	"fmt"
	"hash/maphash"
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
	return d.parseOwnedScoped(data, sourceName, nil)
}

// parseOwnedScoped is ParseOwned with every key prefixed by pre
// (scopedParser).
func (d kvDriver) parseOwnedScoped(data []byte, sourceName string, pre []config.Seg) ([]*config.Instance, error) {
	ins, _, _, err := d.parseProjected(data, sourceName, (*Projection)(nil).filter(pre), pre)
	return ins, err
}

// parseProjected is the scanner behind ParseOwned: it reads and checks
// every line, so a document fails with the same error whatever the
// projection, but carves key room and an instance only for the lines
// whose class f keeps, and of numbers each kept instance's class
// (filter.keep), slab by slab. parsed counts every instance line, kept
// or not. Every key starts with pre.
func (kvDriver) parseProjected(data []byte, sourceName string, f *filter, pre []config.Seg) (ins []*config.Instance, of [][]int32, parsed int, err error) {
	s := borrow(data)
	out := slabs{pre: pre}
	keys := kvKeys{f: f, prefixes: newPrefixes(len(s))}
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
			return nil, nil, 0, fmt.Errorf("kv: %s:%d: expected key=value, got %q", sourceName, ln, line)
		}
		keyStr := strings.TrimSpace(line[:eq])
		segs, g, err := keys.parse(keyStr, &out)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("kv: %s:%d: %w", sourceName, ln, badScope(keyStr, err))
		}
		parsed++
		if segs == nil {
			continue
		}
		out.addOf(config.Instance{
			Key:    config.Key{Segs: segs},
			Value:  strings.TrimSpace(line[eq+1:]),
			Source: sourceName,
			Line:   ln,
		}, g)
	}
	return out.instances(), out.classes(), parsed, nil
}

// kvKeys parses the keys of one document, each recurring prefix once
// (DESIGN.md §5, "Projected ingest"). A key's prefix is its text before
// its last '.', and config.AppendKey parses segments independently, so
// once one key under a prefix has parsed in full, a later key under the
// same text parses only its leaf: its segments are the prefix's, copied
// from the first key's, then the leaf's, and its class is the prefix's
// class with the leaf's name, whose number the filter has kept. The
// leaf text that parsed last is kept with its segment, so in
// parameter-major order, where the leaf repeats from line to line, it is
// not parsed again. Any step of that which fails parses the whole key
// again, so an error quotes the whole key exactly as a full parse's
// does.
type kvKeys struct {
	f        *filter
	prefixes prefixes
	scratch  []config.Seg
	leafText string // the leaf text parsed last, "" before one has
	leafSeg  config.Seg
}

// parse parses key and returns its segments, behind out's scope, in room
// carved from out, or nil when the filter drops its class; g is the
// number the filter gives the class.
func (k *kvKeys) parse(key string, out *slabs) (segs []config.Seg, g int32, err error) {
	dot := strings.LastIndexByte(key, '.')
	var p *prefix
	if dot > 0 {
		p = k.prefixes.find(key[:dot])
	}
	if p != nil && p.learnt() {
		if leaf, ok := k.leaf(key[dot+1:]); ok {
			if g = k.f.keep(p.class, leaf.Name); g == dropped {
				return nil, g, nil
			}
			if p.segs != nil {
				segs, room := out.key(len(p.segs) + 1)
				room[copy(room, p.segs)] = leaf
				return segs, g, nil
			}
		}
	}
	if k.scratch, err = config.AppendKey(k.scratch[:0], key); err != nil {
		return nil, 0, err
	}
	n := len(k.scratch)
	class := k.f.class(k.scratch[:n-1])
	if g = k.f.keep(class, k.scratch[n-1].Name); g == dropped {
		if p != nil {
			p.class = class
		}
		return nil, g, nil
	}
	segs, room := out.key(n)
	copy(room, k.scratch)
	if p != nil {
		p.class, p.segs = class, room[:n-1:n-1]
	}
	return segs, g, nil
}

// leaf parses the leaf text of a key, which holds no '.', into its one
// segment, reusing the last one when the text is the last one's.
func (k *kvKeys) leaf(text string) (config.Seg, bool) {
	if text == "" || text != k.leafText {
		var one [1]config.Seg
		if _, err := config.AppendKey(one[:0], text); err != nil {
			return config.Seg{}, false
		}
		k.leafText, k.leafSeg = text, one[0]
	}
	return k.leafSeg, true
}

// prefix is what the first full parse of a key under an interned prefix
// learnt: the prefix's segments, borrowed from that key's room, once a
// kept key has them, and its class under the filter.
type prefix struct {
	text  string
	segs  []config.Seg
	class *prefixClass
}

// learnt reports whether a full parse under the prefix has filled the
// entry in: every one learns the class, and a kept key the segments.
func (p *prefix) learnt() bool { return p.class != nil }

// prefixes interns the key prefixes of one parse that recur. It is a
// table of prefix-hash tags in buckets of prefixWays slots, sized to the
// document, and a prefix is admitted on its second sighting in its
// bucket while its tag is still there, so a document whose every key has
// a prefix of its own pays a hash and a tag compare or two per line and
// interns nothing. A first sighting takes an empty slot, else the last
// that holds no admitted prefix, else the bucket's last, so an admitted
// prefix stays while other prefixes come and go beside it: with one slot
// per bucket, two prefixes sharing it and used in turn, as a document
// written parameter by parameter uses them, would each evict the other's
// sighting and neither would ever be admitted. Each slot owns at most
// one entry, reused by the next prefix admitted there, so the entries
// never outnumber the slots.
type prefixes struct {
	slots  []prefixSlot
	chunks [][]prefix
	used   int
}

// prefixSlot is one slot of the table: the tag of the last prefix
// sighted there (never 0, so 0 is an empty slot) and the slot's entry,
// 1 + its index, positive when it holds that prefix, negated when it
// holds an earlier one, 0 before the slot has one.
type prefixSlot struct {
	tag uint32
	ent int32
}

// prefixWays is the number of slots in a bucket of the table.
const prefixWays = 2

// prefixBytesPerSlot sizes the table: one slot per this many bytes of
// document, rounded up to a power of two.
const prefixBytesPerSlot = 1024

var prefixSeed = maphash.MakeSeed()

func newPrefixes(docLen int) prefixes {
	n := 16
	for n*prefixBytesPerSlot < docLen {
		n *= 2
	}
	return prefixes{slots: make([]prefixSlot, n)}
}

// find returns the entry of prefix text, or nil when it is not interned
// (yet). An entry it admits comes back unlearnt.
func (t *prefixes) find(text string) *prefix {
	h := maphash.String(prefixSeed, text)
	at := int(h&uint64(len(t.slots)/prefixWays-1)) * prefixWays
	bucket := t.slots[at : at+prefixWays]
	tag := uint32(h>>32) | 1
	var sl *prefixSlot
	for i := range bucket {
		if bucket[i].tag == tag {
			sl = &bucket[i]
			break
		}
	}
	switch {
	case sl == nil: // a first sighting
		victim := prefixWays - 1
		for i := range bucket {
			if bucket[i].tag == 0 {
				victim = i
				break
			}
			if bucket[i].ent <= 0 {
				victim = i // the last slot holding no admitted prefix
			}
		}
		sl = &bucket[victim]
		sl.tag = tag
		if sl.ent > 0 {
			sl.ent = -sl.ent
		}
		return nil
	case sl.ent > 0:
		if p := t.entry(sl.ent); p.text == text {
			return p
		}
		return nil // another prefix with the same tag
	case sl.ent == 0:
		t.used++
		sl.ent = -int32(t.used)
	}
	sl.ent = -sl.ent
	p := t.entry(sl.ent)
	*p = prefix{text: text}
	return p
}

// entry returns entry ent (1-based), growing the entries a chunk at a
// time so that admitting one never copies the others.
func (t *prefixes) entry(ent int32) *prefix {
	const chunk = 32
	i := int(ent) - 1
	for i/chunk >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]prefix, chunk))
	}
	return &t.chunks[i/chunk][i%chunk]
}

// Reparse re-parses data against base, a document ParseOwned parsed into
// ins (Reparser).
func (kvDriver) Reparse(base []byte, ins []*config.Instance, data []byte) ([]config.Change, bool) {
	return reparse(borrow(base), borrow(data), ins, kvValueEnd)
}

// ReparseWindows re-parses base with ws in place against ins, the
// instances ParseOwned parsed base into (Reparser).
func (kvDriver) ReparseWindows(base []byte, ins []*config.Instance, ws []Window) ([]config.Change, bool) {
	return reparseWindows(base, ins, ws, kvValueEnd, kvContext)
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
