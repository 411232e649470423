package driver

import (
	"strings"

	"confvalley/internal/config"
)

// Reparser is implemented by the owned drivers whose every instance value
// is either a substring of the document or a string of its own (xml, kv).
// A document that differs from one they parsed only inside such values
// can then be re-parsed from the earlier parse instead of in full.
type Reparser interface {
	OwnedDriver
	// Reparse reports what ParseOwned(data) would return, given base and
	// the instances a ParseOwned(base) returned — scoped or not, since the
	// keys are reused as they are — as the instances that differ from
	// base's, or false when it cannot prove that. Every other instance is
	// base's own at its position. A changed value is copied, so the
	// changes hold no reference into data and base stays the only
	// document the instances pin.
	Reparse(base []byte, ins []*config.Instance, data []byte) ([]config.Change, bool)
	// ReparseWindows is Reparse for a document given as base with each
	// window's bytes in place of the base bytes it covers. It reads only
	// the windows and a margin around each change in them, so it may also
	// decline a document Reparse takes: one whose changed value reaches
	// past the margin or into another window. ins must be InOrder(base).
	ReparseWindows(base []byte, ins []*config.Instance, ws []Window) ([]config.Change, bool)
}

// A Window is one stretch of a document given as an edit of a base
// document: Data stands where base[Lo:Hi] stood. The windows of one
// document are in order and do not overlap.
type Window struct {
	Lo, Hi int
	Data   []byte
}

// InOrder reports whether the values of ins that borrow from base start
// one behind the other, each at or past the end of the one before: what
// ReparseWindows needs to find the instances near a window without
// walking the others. A parse checks it once; the re-parses of its
// document rely on it.
func InOrder(base []byte, ins []*config.Instance) bool {
	doc, last := borrow(base), 0
	for _, in := range ins {
		if off, ok := offsetIn(doc, in.Value); ok {
			if off < last {
				return false
			}
			last = off + len(in.Value)
		}
	}
	return true
}

// valueEnd reports where a changed value ends in doc: at is where it
// starts there, and s where the value it replaces starts in base, whose
// bytes before s are doc's bytes before at. ok is false unless the full
// parse of doc would read exactly doc[at:end] as that instance's value, by
// the same path it read the old one.
type valueEnd func(base, doc string, s, at int) (end int, ok bool)

// A revalue is one changed value: ins[i]'s, now doc[at:to].
type revalue struct{ i, at, to int }

// reparse is the contiguous delta walk both Reparse methods share: the
// walk over the whole of base and doc.
func reparse(base, doc string, ins []*config.Instance, end valueEnd) ([]config.Change, bool) {
	var stack [4]revalue
	changed, ok := walk(base, 0, len(base), doc, ins, 0, end, stack[:0])
	if !ok {
		return nil, false
	}
	return revalued(ins, doc, changed, true), true
}

// walk is the delta walk. It moves through base[lo:hi], the region, and
// doc, what the region reads in the new document, in step, jumping over
// equal bytes at memory speed, and stops at each difference. A difference
// inside a base value that borrows from base, or just behind one,
// re-values that instance: end finds the new value's extent and the walk
// resumes behind both values. Any other difference — in a key, a tag, a
// comment, white space, an empty value or a rewritten one — declines, and
// so does a value that does not start behind the one before it or that
// runs past the region. Everything outside the values is then
// byte-equal, so the full parse of doc takes the same path as base's and
// differs only in those values. The region's instances are ins[i:] on,
// the first of them starting at or after lo. The changed values are
// appended to changed, as spans of doc; nothing is copied before the walk
// has proved the whole region.
func walk(base string, lo, hi int, doc string, ins []*config.Instance, i int, end valueEnd, changed []revalue) ([]revalue, bool) {
	region := base[lo:hi]
	if region == doc {
		return changed, true
	}
	b, n := 0, 0 // region[:b] and doc[:n] are accounted for
	last := 0
	for {
		k := commonPrefix(region[b:], doc[n:])
		b, n = b+k, n+k
		if b == len(region) && n == len(doc) {
			break
		}
		// Find the first value ending at or after the difference.
		s, e := -1, -1
		for ; i < len(ins); i++ {
			off, ok := offsetIn(base, ins[i].Value)
			if !ok {
				continue // empty or rewritten: its bytes are compared like any other
			}
			off -= lo
			if off < last {
				return nil, false
			}
			last = off + len(ins[i].Value)
			if last >= b {
				s, e = off, last
				break
			}
		}
		if s < 0 || s > b || e > len(region) {
			return nil, false
		}
		at := n - (b - s)
		to, ok := end(region, doc, s, at)
		if !ok {
			return nil, false
		}
		if doc[at:to] != ins[i].Value {
			changed = append(changed, revalue{i, at, to})
		}
		b, n = e, to
		i++
	}
	return changed, true
}

// revalued turns the changed spans of doc into changes: copies of the
// instances with the new values, copied out of doc when clone is set and
// borrowed from it otherwise.
func revalued(ins []*config.Instance, doc string, changed []revalue, clone bool) []config.Change {
	var out []config.Change
	var cps []config.Instance
	switch len(changed) {
	case 0:
		return nil
	case 1: // one allocation for the one change
		cell := new(struct {
			out [1]config.Change
			in  [1]config.Instance
		})
		out, cps = cell.out[:], cell.in[:]
	default:
		out, cps = make([]config.Change, len(changed)), make([]config.Instance, len(changed))
	}
	for k, c := range changed {
		cps[k] = *ins[c.i]
		cps[k].Value = doc[c.at:c.to]
		if clone {
			cps[k].Value = strings.Clone(cps[k].Value)
		}
		out[k] = config.Change{I: c.i, In: &cps[k]}
	}
	return out
}

// A widener widens a change, base[lo:hi], to the region a walk over it
// reads: every byte valueEnd may look at for a value the change is in.
// ok is false when the region could not be bounded.
type widener func(base string, lo, hi int) (from, to int, ok bool)

// reparseWindows is the windowed delta walk both ReparseWindows methods
// share. In each window it trims the bytes equal to base's at either end,
// widens what is left to its context and walks that region alone — the
// base bytes around the change, the window's changed bytes between them —
// starting from the first instance of the region, found by bisection
// (ins is in order). A region that reaches into a neighbouring window
// declines: its bytes there are not base's.
func reparseWindows(base []byte, ins []*config.Instance, ws []Window, end valueEnd, widen widener) ([]config.Change, bool) {
	text := borrow(base)
	var changedStack [4]revalue
	var regionsStack [4]string
	var firstsStack [4]int
	changed := changedStack[:0]
	regions := regionsStack[:0] // the region texts, which changed values borrow from
	firsts := firstsStack[:0]   // where each region's values start in changed
	prevHi := 0
	for w, win := range ws {
		if win.Lo < prevHi || win.Hi < win.Lo || win.Hi > len(text) {
			return nil, false
		}
		k, t := trim(text[win.Lo:win.Hi], borrow(win.Data))
		if k < 0 {
			prevHi = win.Hi
			continue
		}
		data := borrow(win.Data)
		from, to, ok := widen(text, win.Lo+k, win.Hi-t)
		nextLo := len(text)
		if w+1 < len(ws) {
			nextLo = ws[w+1].Lo
		}
		if !ok || from < prevHi || to > nextLo {
			return nil, false
		}
		region := text[from:win.Lo+k] + data[k:len(data)-t] + text[win.Hi-t:to]
		i := firstFrom(text, ins, from)
		firsts = append(firsts, len(changed))
		regions = append(regions, region)
		if changed, ok = walk(text, from, to, region, ins, i, end, changed); !ok {
			return nil, false
		}
		prevHi = win.Hi
	}
	if len(changed) == 0 {
		return nil, true
	}
	if len(regions) == 1 {
		// The region is this walk's own string, so values borrow from it.
		return revalued(ins, regions[0], changed, false), true
	}
	out := make([]config.Change, 0, len(changed))
	for r, region := range regions {
		stop := len(changed)
		if r+1 < len(firsts) {
			stop = firsts[r+1]
		}
		out = append(out, revalued(ins, region, changed[firsts[r]:stop], false)...)
	}
	return out, true
}

// firstFrom returns the index of the first instance of ins, which is in
// order, whose value borrows from doc at or after lo — or, when none does,
// len(ins) — by bisection. An instance whose value does not borrow from
// doc is skipped over to the next one that does.
func firstFrom(doc string, ins []*config.Instance, lo int) int {
	a, b := 0, len(ins)
	for a < b {
		m := int(uint(a+b) >> 1)
		j := m
		off, ok := 0, false
		for ; j < b; j++ {
			if off, ok = offsetIn(doc, ins[j].Value); ok {
				break
			}
		}
		if !ok || off >= lo {
			b = m
		} else {
			a = j + 1
		}
	}
	return a
}

// windowMargin is how far an XML change's region reaches on either side:
// a changed value must start and end within it.
const windowMargin = 256

// xmlContext widens a change by windowMargin bytes each way: xmlValueEnd
// reads one byte before a value and up to its closing quote.
func xmlContext(base string, lo, hi int) (int, int, bool) {
	return max(lo-windowMargin, 0), min(hi+windowMargin, len(base)), true
}

// kvContext widens a change to the lines it touches, the last one's
// newline included: kvValueEnd reads a value's whole line. A line longer
// than windowMargin·16 bytes declines.
func kvContext(base string, lo, hi int) (int, int, bool) {
	from := strings.LastIndexByte(base[:lo], '\n') + 1
	to := len(base)
	if i := strings.IndexByte(base[hi:], '\n'); i >= 0 {
		to = hi + i + 1
	}
	return from, to, lo-from <= 16*windowMargin && to-hi <= 16*windowMargin
}

// trim returns how many bytes old and data have in common at their start,
// k, and at their end after those, t: data[k:len(data)-t] is what stands
// where old[k:len(old)-t] stood. k is -1 when they are equal.
func trim(old, data string) (k, t int) {
	k = commonPrefix(old, data)
	if k == len(old) && k == len(data) {
		return -1, 0
	}
	return k, commonSuffix(old[k:], data[k:])
}

// A Differ cuts data, an edit of old, into the stretches where it differs
// from old (Next): those left between the runs of bytes the two have in
// common. A run is found past the start of a difference where diffBlock
// bytes of old stand in data at the distance from the start they stood
// at in old — a change that kept its length — or at the distance the
// rest of the two implies — the last change that did not — first
// diffReach bytes on, then twice as far each time; a difference no run is
// found past reaches to the bytes the two end with. Any cut is sound —
// the stretches spell data as an edit of old whatever the runs — so the
// search only bounds how many bytes they hold: about diffReach around
// each value an edit of a document changed.
type Differ struct {
	old, data string
	i, j      int // old[:i] and data[:j] are accounted for
	end, dend int // where the bytes the two end with start
}

// How far past the start of a difference, and over how many bytes, a
// Differ looks for the run that ends it.
const (
	diffReach = 64
	diffBlock = 32
)

// NewDiffer returns a Differ of data as an edit of old.
func NewDiffer(old, data []byte) Differ {
	d := Differ{old: borrow(old), data: borrow(data)}
	if k, t := trim(d.old, d.data); k >= 0 {
		d.i, d.j, d.end, d.dend = k, k, len(old)-t, len(data)-t
	}
	return d
}

// Next returns the next stretch where data differs from old: data[dlo:dhi]
// stands where old[lo:hi] stood. ok is false when there is none.
func (d *Differ) Next() (lo, hi, dlo, dhi int, ok bool) {
	k := commonPrefix(d.old[d.i:d.end], d.data[d.j:d.dend])
	lo, dlo = d.i+k, d.j+k
	if lo == d.end && dlo == d.dend {
		return 0, 0, 0, 0, false
	}
	hi, dhi = d.end, d.dend
	for r := diffReach; lo+r+diffBlock <= d.end; r *= 2 {
		run := d.old[lo+r : lo+r+diffBlock]
		if s := dlo + r; s+diffBlock <= d.dend && d.data[s:s+diffBlock] == run {
			hi, dhi = lo+r, s
			break
		}
		if s := d.dend - (d.end - lo - r); s > dlo && s+diffBlock <= d.dend && d.data[s:s+diffBlock] == run {
			hi, dhi = lo+r, s
			break
		}
	}
	d.i, d.j = hi, dhi
	return lo, hi, dlo, dhi, true
}

// commonPrefix returns the length of the longest common prefix of a and
// b, comparing long runs with the runtime's vectorised string equality.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for _, step := range [...]int{4096, 64, 1} {
		for i+step <= n && a[i:i+step] == b[i:i+step] {
			i += step
		}
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and b.
func commonSuffix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for _, step := range [...]int{4096, 64, 1} {
		for i+step <= n && a[len(a)-i-step:len(a)-i] == b[len(b)-i-step:len(b)-i] {
			i += step
		}
	}
	return i
}
