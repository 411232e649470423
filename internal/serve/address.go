package serve

// The content address of a validate request body (DESIGN.md §12). It is
// a sha256 tree of one level: the body is cut into fixed chunks of
// addressChunk bytes (the last one shorter, an empty body none), each
// chunk is hashed, and the address is the hex sha256 of
//
//	addressDomain ‖ uint64 little-endian body length ‖ chunk digests in order
//
// It is a pure, collision-resistant function of the body's bytes, so it
// keys the result cache and single-flight and seals the store exactly as
// a whole-body sha256 did. What it buys is reuse: each registered spec
// keeps an addressMemo, an owned copy of the last body addressed under
// it with the digest of each of its chunks, and a chunk whose bytes
// equal the memo's chunk at the same index takes the memo's digest
// instead of being hashed. A byte-identical repeat costs a compare; a
// body with one changed value hashes the one chunk it is in.
//
// The memo serves the request's decode too, without a decoded copy of
// the body. Beside the body it keeps a view of the body's last decode
// (lastDecode): each payload's data as its anchor — the bytes the spec
// lineage's parse of that payload borrows from, those of its latest full
// parse, read-only, never written and never handed back to the payload
// pool — with windows where the decode differs from it, and the decode's
// marks, one per chunk boundary: where the decode stood at the first
// token boundary at or after it inside a payload's data. The run reports
// each payload's anchor (runner.Result.Anchors), and the view is built
// once it is over (finish). A later decode that reaches a marked boundary
// in chunks equal to the memo's body takes the view's bytes up to the last
// mark the equal chunks reach (markAt): it points at the anchor's bytes,
// without unquoting or copying them, and copies the few the windows hold.
// It hands the payload over as a patch (runner.Payload.Patch): the anchor
// with the bytes it unquoted or copied as windows in place. A one-value
// request so unquotes the chunks around its change and the run re-parses
// those windows alone. Every decode is measured against the body just
// before it, so a request costs its own change whatever changed since the
// full parse: that drift is the view's windows, the bytes the data
// differs in from its anchor, which are all the memo keeps of a decode.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"sync"

	"confvalley/internal/driver"
	"confvalley/internal/ingest"
	"confvalley/internal/runner"
)

// addressChunk is the tree's chunk size. A memo of this package's tests
// may cut its bodies finer (addressMemo.chunk), so that a fuzzer meets
// chunk edges in bodies of a few kilobytes.
const addressChunk = 64 << 10

// addressDomain opens every tree's top-level hash input, so an address
// never equals the plain sha256 of some other byte string.
const addressDomain = "confvalley content address v1\x00"

// addressHeader is the length of the top-level input before the digests.
const addressHeader = len(addressDomain) + 8

// stackChunks bounds the bodies addressed without a heap allocation:
// the top-level input and the per-chunk flags of a body of at most this
// many chunks (16 MB) live on the caller's stack.
const stackChunks = 256

// addressMemo is one registration's memo: the last body addressed under
// it, copied, with the digest of each of its chunks, and the view of that
// body's decode. Generations name the bodies: gen moves on each time body
// changes. Chunks are compared under the mutex; hashing and decoding run
// outside it. It never aliases a body it was given (the handler pools
// those) and never writes to an anchor.
type addressMemo struct {
	// chunk is the chunk size, addressChunk when zero, which it is but in
	// tests.
	chunk int

	mu   sync.Mutex
	body []byte
	sums [][sha256.Size]byte
	gen  uint64
	// last is the view of a decode of a body the memo held, nil when it
	// has none. It is immutable: a decode reads it outside the mutex.
	last *lastDecode
}

// A lastDecode is the decode of the memo's body of generation gen, held
// as a view: its data strings, each as its anchor with the windows where
// it differs from it, and the decode's marks. The windows' bytes are the
// view's own, copied out of the decode, so the memo never keeps a decode
// buffer.
type lastDecode struct {
	gen   uint64
	marks []mark
	strs  []dataStr
	ws    []viewWindow
	bytes []byte
	// Room for the marks of a body of up to 8 MB, and for the windows of
	// a one-value decode and their bytes, so that the view of one is one
	// allocation.
	marksRoom [128]mark
	wsRoom    [2]viewWindow
	bytesRoom [64]byte
}

// A dataStr is one decoded data string: its place in the decode's bytes,
// its bytes as the decoder handed them over — plain, or a patch — and, in
// a view, which keeps neither, its anchor and where it differs from it. A
// string of a view with no anchor lends a decode nothing.
type dataStr struct {
	span
	plain  []byte
	patch  *stringPatch
	anchor []byte
	ws     []viewWindow
}

// A viewWindow is where a view's string differs from its anchor: data
// stands where anchor[lo:hi] stood, at offset at of the string. The
// windows of a string are in order and do not overlap.
type viewWindow struct {
	lo, hi, at int
	data       []byte
}

// A span is a data string's place in a decode's bytes.
type span struct{ lo, hi int }

// A mark is where a decode stood at one chunk boundary: the first token
// boundary at or after it inside a payload's data string, as a body
// offset (at) and an offset into the decoded bytes (out), and the
// string's place among the body's data strings (str, from 1). A token is
// a plain byte, an escape (a surrogate pair's two are one) or a
// multi-byte character, so the boundaries, and the marks, are the body's
// whatever way the decoder steps through it. out counts the bytes a plain
// decode would have written, taken from a view or not.
type mark struct {
	at, out, str int
}

// An addressing is one body's addressing under a memo: its content
// address, the chunks it hashed and reused, and what its decode may take
// from the memo. equal[i] reports that chunk i equals chunk i of the body
// last decoded; own is the generation at which the memo held this body
// once it was addressed.
type addressing struct {
	id             string
	hashed, reused int
	equal          []bool
	last           *lastDecode
	own            uint64
}

// chunkSize returns the memo's chunk size.
func (m *addressMemo) chunkSize() int {
	if m.chunk == 0 {
		return addressChunk
	}
	return m.chunk
}

// chunkEnd returns the end of the chunk of size c starting at lo in a
// body of n bytes.
func chunkEnd(lo, c, n int) int {
	return min(lo+c, n)
}

// addressOf returns body's addressing and leaves body's bytes and digests
// in the memo; it keeps no reference into body. The chunk flags go in
// equal when it has room for them, and in a new slice when it does not;
// they are set only when the memo holds a view of the body it compares
// against, the one a decode may take from.
func (m *addressMemo) addressOf(body []byte, equal []bool) addressing {
	c := m.chunkSize()
	n := (len(body) + c - 1) / c
	var treeStack [addressHeader + stackChunks*sha256.Size]byte
	var tree []byte
	if n <= stackChunks {
		tree = treeStack[:addressHeader+n*sha256.Size]
	} else {
		tree = make([]byte, addressHeader+n*sha256.Size)
	}
	if cap(equal) < n {
		equal = make([]bool, n)
	}
	a := addressing{equal: equal[:n]}
	copy(tree, addressDomain)
	binary.LittleEndian.PutUint64(tree[len(addressDomain):], uint64(len(body)))
	sums := tree[addressHeader:]

	m.mu.Lock()
	base := m.gen
	if m.last != nil && m.last.gen == base {
		a.last = m.last
	}
	sameLen := len(m.body) == len(body)
	for i := range n {
		lo := i * c
		hi := chunkEnd(lo, c, len(body))
		a.equal[i] = lo < len(m.body) && bytes.Equal(m.body[lo:chunkEnd(lo, c, len(m.body))], body[lo:hi])
		if a.equal[i] {
			copy(sums[i*sha256.Size:], m.sums[i][:])
			a.reused++
		}
	}
	m.mu.Unlock()

	for i := range n {
		if !a.equal[i] {
			lo := i * c
			sum := sha256.Sum256(body[lo:chunkEnd(lo, c, len(body))])
			copy(sums[i*sha256.Size:], sum[:])
			a.hashed++
		}
	}
	a.own = base
	if a.hashed > 0 || !sameLen {
		a.own = m.update(body, sums, a.equal, base)
	}

	top := sha256.Sum256(tree)
	var hexed [2 * sha256.Size]byte
	hex.Encode(hexed[:], top[:])
	a.id = string(hexed[:])
	return a
}

// update makes body the memo's body, of a new generation, which it
// returns. When the memo still holds the body of generation base and it
// is as long, only the chunks that differed from it are copied, digests
// with them; otherwise the whole body is, in the memo's capacity unless
// that is over twice the body's.
func (m *addressMemo) update(body, sums []byte, equal []bool, base uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.body) != len(body) || m.gen != base {
		if cap(m.body) > 2*len(body) {
			m.body = nil // a body much shorter than the last does not keep its capacity
		}
		m.body = append(m.body[:0], body...)
		m.sums = m.sums[:0]
		for i := range equal {
			m.sums = append(m.sums, [sha256.Size]byte(sums[i*sha256.Size:]))
		}
	} else {
		c := m.chunkSize()
		for i, eq := range equal {
			if !eq {
				lo := i * c
				hi := chunkEnd(lo, c, len(body))
				copy(m.body[lo:hi], body[lo:hi])
				m.sums[i] = [sha256.Size]byte(sums[i*sha256.Size:])
			}
		}
	}
	m.gen++
	return m.gen
}

// A decoded request is what a decode against the memo returns: the
// request, the buffer its unquoted bytes went into, and what finish needs
// to make the decode the memo's view.
type decoded struct {
	payloads []runner.Payload
	sources  []SourceRef
	// buf is the decode buffer, nil when the body has no payload data. It
	// holds every patch's windows, which no run keeps, and nothing a
	// plain payload points into (envelopeDecoder.own), so it is released
	// after the run.
	buf *[]byte
	// reused counts the decoded bytes taken from the view's anchors.
	reused int64
	// ok reports that the decode succeeded; strs are then its data
	// strings. v is the view the decode may become, its marks in it.
	ok   bool
	strs []dataStr
	v    *lastDecode
	own  uint64
}

// decode decodes body, which a addressed under the memo, as
// decodeEnvelope does, except that it takes the decoded bytes of runs of
// chunks equal to the last decoded body's from that decode's view
// (markAt): a payload with such a run is handed over as a patch, which
// materialises to what decodeEnvelope decodes.
func (m *addressMemo) decode(a *addressing, body []byte, maxSources int, maxPayloadBytes int64) (decoded, error) {
	v := &lastDecode{gen: a.own}
	v.marks = v.marksRoom[:0]
	if len(a.equal) > len(v.marksRoom) {
		v.marks = make([]mark, 0, len(a.equal))
	}
	d := envelopeDecoder{b: body, maxSources: maxSources, budget: max(maxPayloadBytes, 0),
		mark: (*envelopeDecoder).markAt, chunk: m.chunkSize(), last: a.last, marks: v.marks}
	if a.last != nil {
		d.equal = append(d.eq[:0], a.equal...)
	}
	payloads, sources, buf, err := d.decode()
	dec := decoded{payloads: payloads, sources: sources, buf: buf, reused: d.reused, ok: err == nil, own: a.own}
	if dec.ok {
		v.marks, dec.strs, dec.v = d.marks, d.strs, v
	}
	return dec, err
}

// finish ends a request decoded against the memo once the run it fed is
// over. anchors is what the run reported in runner.Result.Anchors, nil
// when no run of this request reported: it was refused, coalesced onto
// another's run, or its run failed. When the memo still holds the body,
// a decode whose run reported becomes the memo's view, and a failed
// decode drops the memo's. Then the decode buffer goes back to the pool.
func (m *addressMemo) finish(dec *decoded, anchors [][]byte) {
	if !dec.ok || anchors != nil {
		m.mu.Lock()
		holds := m.gen == dec.own
		m.mu.Unlock()
		if holds {
			var v *lastDecode
			if dec.ok && dec.strs != nil {
				v = dec.view(anchors)
			}
			m.mu.Lock()
			if m.gen == dec.own {
				m.last = v
			}
			m.mu.Unlock()
		}
	}
	releasePayloads(dec.buf)
}

// view returns the decode as a view of the anchors its run reported, one
// per payload: each payload's data string as its anchor with windows where
// it differs from it. A string whose payload has no anchor, or that no
// payload holds any more, has none, and a decode none of whose strings
// has one is no view (nil). It reads the decode buffer, so it runs before
// the buffer is released.
func (dec *decoded) view(anchors [][]byte) *lastDecode {
	v := dec.v
	v.strs, v.ws, v.bytes = dec.strs, v.wsRoom[:0], v.bytesRoom[:0]
	anchored := false
	for k := range v.strs {
		s := &v.strs[k]
		if i := dec.payloadOf(s); i >= 0 && i < len(anchors) && anchors[i] != nil {
			s.anchor, anchored = anchors[i], true
			first := len(v.ws)
			v.ws = s.diff(v.ws)
			s.ws = v.ws[first:]
		}
	}
	if !anchored {
		return nil
	}
	// Point each string at its windows, and the windows at bytes of the
	// view's own, now that neither list grows.
	n, at := 0, 0
	for k := range v.strs {
		s := &v.strs[k]
		w := len(s.ws)
		s.ws, s.plain, s.patch = v.ws[at:at+w:at+w], nil, nil
		at += w
	}
	for _, w := range v.ws {
		n += len(w.data)
	}
	if n > len(v.bytesRoom) {
		v.bytes = make([]byte, 0, n)
	}
	for k := range v.ws {
		w := &v.ws[k]
		at := len(v.bytes)
		v.bytes = append(v.bytes, w.data...)
		w.data = v.bytes[at:len(v.bytes):len(v.bytes)]
	}
	return v
}

// payloadOf returns the index of the payload whose data string s is, or
// -1 when none is: a repeated payloads member decodes over the payloads
// an earlier one decoded.
func (dec *decoded) payloadOf(s *dataStr) int {
	for i, p := range dec.payloads {
		switch {
		case s.patch != nil:
			if p.Patch == &s.patch.Patch {
				return i
			}
		case len(s.plain) > 0:
			if p.Patch == nil && len(p.Data) > 0 && &p.Data[0] == &s.plain[0] {
				return i
			}
		}
	}
	return -1
}

// diff appends to ws the windows where the string's decoded bytes differ
// from its anchor: for a patch of the anchor, where each of its windows
// does; otherwise, where the string does.
func (s *dataStr) diff(ws []viewWindow) []viewWindow {
	data := s.plain
	if p := s.patch; p != nil {
		if sameBytes(p.Anchor, s.anchor) {
			shift := 0
			for _, w := range p.Windows {
				ws = appendDiff(ws, s.anchor[w.Lo:w.Hi], w.Data, w.Lo, w.Lo+shift)
				shift += len(w.Data) - (w.Hi - w.Lo)
			}
			return ws
		}
		data = p.Bytes()
	}
	if sameBytes(data, s.anchor) {
		return ws
	}
	return appendDiff(ws, s.anchor, data, 0, 0)
}

// appendDiff appends to ws the windows where data differs from old, which
// lies at lo of the anchor and at of the string (driver.Differ).
func appendDiff(ws []viewWindow, old, data []byte, lo, at int) []viewWindow {
	d := driver.NewDiffer(old, data)
	for {
		olo, ohi, dlo, dhi, ok := d.Next()
		if !ok {
			return ws
		}
		ws = append(ws, viewWindow{lo: lo + olo, hi: lo + ohi, at: at + dlo, data: data[dlo:dhi]})
	}
}

// sameBytes reports whether a and b are the same bytes in memory, not
// merely equal ones.
func sameBytes(a, b []byte) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// markAt is unquote's stop inside a payload's data at token boundary i,
// at or past the next chunk boundary; dst and limit are unquote's. It
// marks every chunk boundary up to i at i. Then, when the last decode
// marked i for the chunk i is in, in a string with an anchor — the one
// any earlier run of this string took from — it takes that decode's
// bytes from there to the furthest mark e such that the chunks from i's
// through e's are equal to the last decoded body's, mark e lies in the
// same string and the bytes fit in limit (take), and returns mark e's
// offset for the cursor. Chunk e must be equal too: the token that ends
// at mark e was decoded looking a few bytes past it. Otherwise it returns
// its arguments.
func (d *envelopeDecoder) markAt(i int, dst []byte, limit int64) (int, []byte, int64) {
	for d.next <= i {
		d.marks = append(d.marks, mark{at: i, out: len(dst) + int(d.reused), str: d.str})
		d.next += d.chunk
	}
	if d.next >= len(d.b) {
		d.next = math.MaxInt
	}
	c := len(d.marks) - 1
	v := d.last
	if v == nil || c+1 >= len(d.equal) || !d.equal[c] || !d.equal[c+1] || c >= len(v.marks) || v.marks[c].at != i {
		return i, dst, limit
	}
	from, e := v.marks[c], c
	s := &v.strs[from.str-1]
	if s.anchor == nil || d.cur.sp != nil && d.cur.as != from.str {
		return i, dst, limit
	}
	for k := c + 1; k < len(v.marks) && k < len(d.equal) && d.equal[k] &&
		v.marks[k].str == from.str && int64(v.marks[k].out-from.out) <= limit; k++ {
		e = k
	}
	if e == c {
		return i, dst, limit
	}
	shift := len(dst) + int(d.reused) - from.out
	for _, mk := range v.marks[c+1 : e] {
		d.marks = append(d.marks, mark{at: mk.at, out: mk.out + shift, str: d.str})
	}
	to := v.marks[e]
	dst = d.take(s, from.str, from.out-s.lo, to.out-s.lo, dst)
	d.next = e * d.chunk
	return to.at, dst, limit - int64(to.out-from.out)
}

// minRef is the shortest stretch of an anchor a decode points at rather
// than copies, a sixteenth of a chunk (4 KB at addressChunk): shorter
// ones lie between windows, which are then kept far enough apart for the
// re-parse to take each alone (driver.Reparser).
func (d *envelopeDecoder) minRef() int {
	return d.chunk / 16
}

// take puts bytes [x, y) of the view's string s, the as-th, into the
// decode and returns dst: a stretch of its anchor at least minRef long by
// pointing the string's patch at it (refer), every other byte by copying
// it into dst.
func (d *envelopeDecoder) take(s *dataStr, as, x, y int, dst []byte) []byte {
	// The first window that ends past x, by bisection.
	w, b := 0, len(s.ws)
	for w < b {
		h := int(uint(w+b) >> 1)
		if s.ws[h].at+len(s.ws[h].data) > x {
			b = h
		} else {
			w = h + 1
		}
	}
	for x < y {
		if w < len(s.ws) && s.ws[w].at <= x {
			win := &s.ws[w]
			z := min(y, win.at+len(win.data))
			dst = append(dst, win.data[x-win.at:z-win.at]...)
			x = z
			w++
			continue
		}
		shift := 0 // the string's offsets less the anchor's, past window w-1
		if w > 0 {
			pw := &s.ws[w-1]
			shift = pw.at + len(pw.data) - pw.hi
		}
		z := y
		if w < len(s.ws) {
			z = min(z, s.ws[w].at)
		}
		if lo, hi := x-shift, z-shift; hi-lo < d.minRef() {
			dst = append(dst, s.anchor[lo:hi]...)
		} else {
			d.refer(s.anchor, as, lo, hi, dst)
		}
		x = z
	}
	return dst
}

// refer points the patch of the data string being decoded, a patch of
// anchor, the view's as-th string's, at anchor[lo:hi]: the bytes dst
// gained since the patch last pointed at its anchor become the window
// that stands where the anchor's bytes from there to lo stood.
func (d *envelopeDecoder) refer(anchor []byte, as, lo, hi int, dst []byte) {
	p := &d.cur
	if p.sp == nil {
		p.as, p.sp = as, new(stringPatch)
		p.sp.Anchor = anchor
		p.sp.Windows, p.sp.data = p.sp.ws[:0], p.sp.dataStack[:0]
	}
	if p.from < lo || len(dst) > p.data {
		p.sp.window(p.from, lo, p.data, len(dst))
	}
	p.from, p.data = hi, len(dst)
	d.reused += int64(hi - lo)
}

// A patching is the patch of the data string being decoded, while it is:
// the view's string it is a patch of (as, from 1), where the anchor's
// bytes the next window replaces start (from), where the next window's
// bytes start in the decode buffer (data), and the patch, its windows so
// far, nil until the string first points at an anchor.
type patching struct {
	as, from, data int
	sp             *stringPatch
}

// A stringPatch is one patched data string's patch, with room for the
// windows of a one-value change.
type stringPatch struct {
	ingest.Patch
	ws [3]driver.Window

	// Where each window's bytes lie in the decode buffer, which may still
	// move while the string is decoded; payloadData points the windows at
	// them once it is done.
	data      []span
	dataStack [3]span
}

// window adds the window that puts the decode buffer's bytes [dlo, dhi)
// in place of the anchor's [lo, hi).
func (p *stringPatch) window(lo, hi, dlo, dhi int) {
	p.Windows = append(p.Windows, driver.Window{Lo: lo, Hi: hi})
	p.data = append(p.data, span{dlo, dhi})
}

// resident returns what the memo keeps resident: the capacity of its
// body copy and its digests, and its view with its marks, its string list
// and its windows' bytes. The anchors are not counted: they are the bytes
// the lineages' parses keep, not a copy.
func (m *addressMemo) resident() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := cap(m.body) + cap(m.sums)*sha256.Size
	if v := m.last; v != nil {
		n += lastDecodeSize + cap(v.strs)*dataStrSize
		if cap(v.marks) > len(v.marksRoom) {
			n += cap(v.marks) * markSize
		}
		if cap(v.ws) > len(v.wsRoom) {
			n += cap(v.ws) * viewWindowSize
		}
		if cap(v.bytes) > len(v.bytesRoom) {
			n += cap(v.bytes)
		}
	}
	return int64(n)
}

// The sizes resident counts by.
var (
	lastDecodeSize = int(reflect.TypeFor[lastDecode]().Size())
	dataStrSize    = int(reflect.TypeFor[dataStr]().Size())
	markSize       = int(reflect.TypeFor[mark]().Size())
	viewWindowSize = int(reflect.TypeFor[viewWindow]().Size())
)
