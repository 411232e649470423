package driver

import (
	"slices"
	"strings"

	"confvalley/internal/config"
)

// Reparser is implemented by the owned drivers whose every instance value
// is either a substring of the document or a string of its own (xml, kv).
// A document that differs from one they parsed only inside such values
// can then be re-parsed from the earlier parse instead of in full.
type Reparser interface {
	OwnedDriver
	// Reparse returns what ParseOwned(data) would return, given base and
	// the instances a ParseOwned(base) returned — scoped or not, since the
	// keys are reused as they are — or false when it cannot prove that.
	// Instances whose value did not change are base's own pointers; a
	// changed value is copied, so the result holds no reference into data
	// and base stays the only document the instances pin.
	Reparse(base []byte, ins []*config.Instance, data []byte) ([]*config.Instance, bool)
}

// valueEnd reports where a changed value ends in doc: at is where it
// starts there, and s where the value it replaces starts in base, whose
// bytes before s are doc's bytes before at. ok is false unless the full
// parse of doc would read exactly doc[at:end] as that instance's value, by
// the same path it read the old one.
type valueEnd func(base, doc string, s, at int) (end int, ok bool)

// reparse is the delta walk both Reparse methods share. It moves through
// the two documents in step, jumping over equal bytes at memory speed,
// and stops at each difference. A difference inside a base value that
// borrows from base, or just behind one, re-values that instance: end
// finds the new value's extent and the walk resumes behind both values.
// Any other difference — in a key, a tag, a comment, white space, an
// empty value or a rewritten one — declines, and so does a value that
// does not start behind the one before it. Everything outside the values
// is then byte-equal, so the full parse of doc takes the same path as
// base's and differs only in those values.
func reparse(base, doc string, ins []*config.Instance, end valueEnd) ([]*config.Instance, bool) {
	if base == doc {
		return ins, true
	}
	// The changed values, as spans of doc; nothing is copied before the
	// walk has proved the whole document.
	type revalue struct{ i, at, to int }
	var changed []revalue
	b, n := 0, 0 // base[:b] and doc[:n] are accounted for
	i, last := 0, 0
	for {
		k := commonPrefix(base[b:], doc[n:])
		b, n = b+k, n+k
		if b == len(base) && n == len(doc) {
			break
		}
		// Find the first value ending at or after the difference.
		s, e := -1, -1
		for ; i < len(ins); i++ {
			off, ok := offsetIn(base, ins[i].Value)
			if !ok {
				continue // empty or rewritten: its bytes are compared like any other
			}
			if off < last {
				return nil, false
			}
			last = off + len(ins[i].Value)
			if last >= b {
				s, e = off, last
				break
			}
		}
		if s < 0 || s > b {
			return nil, false
		}
		at := n - (b - s)
		to, ok := end(base, doc, s, at)
		if !ok {
			return nil, false
		}
		if doc[at:to] != ins[i].Value {
			changed = append(changed, revalue{i, at, to})
		}
		b, n = e, to
		i++
	}
	if len(changed) == 0 {
		return ins, true
	}
	out := slices.Clone(ins)
	cps := make([]config.Instance, len(changed))
	for k, c := range changed {
		cps[k] = *ins[c.i]
		cps[k].Value = strings.Clone(doc[c.at:c.to])
		out[c.i] = &cps[k]
	}
	return out, true
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
