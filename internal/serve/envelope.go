package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"confvalley/internal/runner"
)

// The validate request's JSON envelope, decoded in one pass over the body:
// every string is checked and unquoted by the same loop, a payload's data
// goes straight into the bytes the runner parses, and the two per-request
// quotas are enforced while decoding, so a refused request is refused
// before it is materialised. The decoder accepts exactly the bodies
// json.Unmarshal accepts into ValidateRequest and decodes them to the
// same values (DESIGN.md §12 lists the rules); FuzzValidateEnvelope holds
// it to that, which is the only use encoding/json still has here.

// maxNesting is encoding/json's bound on open arrays and objects.
const maxNesting = 10000

// The members of each object the envelope knows, matched as
// encoding/json matches struct fields: exactly, else under simple case
// folding, which is what bytes.EqualFold implements.
var (
	requestFields = [][]byte{[]byte("payloads"), []byte("sources")}
	payloadFields = [][]byte{[]byte("name"), []byte("format"), []byte("scope"), []byte("data")}
	sourceFields  = payloadFields[:3]
)

// Limits for unquote: keepAll for a string no quota bounds, discard to
// check a string and keep nothing of it.
const (
	keepAll = math.MaxInt64
	discard = -1
)

// errOverLimit is unquote's report that the string decodes to more bytes
// than the caller allowed; the cursor then rests inside the string, on the
// unit that did not fit.
var errOverLimit = errors.New("string exceeds its limit")

type envelopeDecoder struct {
	b     []byte
	i     int
	depth int

	payloads []runner.Payload
	sources  []SourceRef

	maxSources int   // bound on payloads+sources
	budget     int64 // payload bytes that may still be decoded

	// data holds every payload's decoded bytes, one after the other; each
	// payload's slice of it is clipped. buf is where data came from, and
	// what is handed back to the pool. name is the scratch the short
	// strings are unquoted into before they become Go strings, and key
	// the one member names are.
	data []byte
	buf  *[]byte
	name []byte
	key  [24]byte

	// Set when decoding against an address memo (address.go): what
	// unquote calls at each chunk boundary (mark, (*envelopeDecoder).markAt
	// unless a test put another), the memo's chunk size, the view of the
	// last decode and the chunk flags of the body's addressing (equal is
	// copied, into eq when it fits, so a decoder points at nothing on its
	// caller's stack), the marks it leaves, the body offset of the next
	// chunk boundary to mark, the data strings begun, the decoded bytes
	// taken from the view's anchors, the patch of the string being
	// decoded, and every data string's place and bytes.
	mark   func(d *envelopeDecoder, i int, dst []byte, limit int64) (int, []byte, int64)
	chunk  int
	last   *lastDecode
	equal  []bool
	eq     [stackChunks]bool
	marks  []mark
	next   int
	str    int
	reused int64
	cur    patching
	strs   []dataStr
}

// payloadPool holds the decode buffers of requests that are over. A
// decode buffer never becomes a parse's (envelopeDecoder.own), so every
// request hands its buffer back once its run is over, and the next
// request's payloads are unquoted into one.
var payloadPool sync.Pool // of *[]byte

// payloadBuffer returns an empty buffer with room for reserve bytes: a
// pooled one when the pool holds one no larger than twice that, else a
// new one. A much larger one is left in the pool for a body its size. A
// new one has room for a sixteenth more, so that a body that grows from
// request to request, as an edited document does, finds it in the pool.
func payloadBuffer(reserve int64) *[]byte {
	if buf, _ := payloadPool.Get().(*[]byte); buf != nil {
		if c := int64(cap(*buf)); reserve <= c && c <= 2*reserve {
			*buf = (*buf)[:0]
			return buf
		}
	}
	buf := make([]byte, 0, reserve+reserve/16)
	return &buf
}

// releasePayloads hands a buffer decodeEnvelope returned back to the
// pool; the caller must know that nothing points into it. A nil buffer
// is ignored.
func releasePayloads(buf *[]byte) {
	if buf == nil {
		return
	}
	if poisonReleasedBodies {
		poison(*buf)
	}
	payloadPool.Put(buf)
}

// decodeEnvelope decodes a validate request body without writing to it
// and without keeping a reference into it. It stops with ErrQuota at
// element maxSources+1 of payloads plus sources, and with ErrTooLarge as
// soon as the payload data decoded so far passes maxPayloadBytes; every
// other error means json.Unmarshal into ValidateRequest refuses the body
// too. buf is the buffer the payloads' data was decoded into, nil when
// the body has none, error or not: the payloads are lent from it, and
// once nothing points into them the caller may release it.
func decodeEnvelope(body []byte, maxSources int, maxPayloadBytes int64) (payloads []runner.Payload, sources []SourceRef, buf *[]byte, err error) {
	d := envelopeDecoder{b: body, maxSources: maxSources, budget: max(maxPayloadBytes, 0)}
	return d.decode()
}

// decode is decodeEnvelope for the decoder's body, quotas and memo.
func (d *envelopeDecoder) decode() (payloads []runner.Payload, sources []SourceRef, buf *[]byte, err error) {
	d.space()
	switch d.peek() {
	case 'n': // null decodes to the empty request
		err = d.literal("null")
	case '{':
		err = d.request()
	default:
		err = d.syntax("expected an object")
	}
	if d.buf != nil {
		*d.buf = d.data // malformed UTF-8 may have grown it
	}
	if err != nil {
		return nil, nil, d.buf, err
	}
	if d.space(); d.i < len(d.b) {
		return nil, nil, d.buf, d.syntax("unexpected data after the request")
	}
	d.own()
	return d.payloads, d.sources, d.buf, nil
}

// own moves the plain payloads' bytes out of the decode buffer into one
// allocation of their own, exactly their size, and points the payloads
// and their data strings at it. A full parse keeps the bytes it is handed
// for as long as the snapshot parsed from them (the drivers borrow from
// runner.Payload.Data), while the decode buffer is reserved at the
// length of the body, escapes and all, so a parse that kept it would keep
// its tail too. After own the buffer holds nothing but patches' windows,
// which no run keeps.
func (d *envelopeDecoder) own() {
	n := 0
	for _, p := range d.payloads {
		if p.Patch == nil {
			n += len(p.Data)
		}
	}
	if n == 0 {
		return
	}
	kept := make([]byte, 0, n)
	for i := range d.payloads {
		p := &d.payloads[i]
		if p.Patch != nil || len(p.Data) == 0 {
			continue
		}
		at := len(kept)
		kept = append(kept, p.Data...)
		data := kept[at:len(kept):len(kept)]
		for k := range d.strs {
			if s := &d.strs[k]; len(s.plain) > 0 && &s.plain[0] == &p.Data[0] {
				s.plain = data
			}
		}
		p.Data = data
	}
}

func (d *envelopeDecoder) request() error {
	return d.object(requestFields, func(f int) error {
		if f == 0 {
			return decodeList(d, &d.payloads, &d.sources, (*envelopeDecoder).payload)
		}
		return decodeList(d, &d.sources, &d.payloads, (*envelopeDecoder).source)
	})
}

func (d *envelopeDecoder) payload(p *runner.Payload) error {
	return d.object(payloadFields, func(f int) error {
		if f == 3 {
			return d.payloadData(p)
		}
		return d.text([]*string{&p.Name, &p.Format, &p.Scope}[f])
	})
}

func (d *envelopeDecoder) source(s *SourceRef) error {
	return d.object(sourceFields, func(f int) error {
		return d.text([]*string{&s.Name, &s.Format, &s.Scope}[f])
	})
}

// object reads the object at the cursor, handing field the index in names
// of each member it knows, the cursor on the member's value.
func (d *envelopeDecoder) object(names [][]byte, field func(f int) error) error {
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		f, err := d.member(names, first)
		if err != nil || f < 0 {
			return err
		}
		if err := field(f); err != nil {
			return err
		}
	}
}

// decodeList decodes an array into *list the way encoding/json decodes
// into a slice that may already hold elements (a repeated member): element
// i is decoded into what slot i already holds, slots past the old length
// but inside the capacity come back as they were left, the slice is cut to
// the elements read, an empty array is an empty non-nil slice and null a
// nil one. other is the list sharing the source-count quota.
func decodeList[T, U any](d *envelopeDecoder, list *[]T, other *[]U, elem func(*envelopeDecoder, *T) error) error {
	switch d.peek() {
	case 'n':
		*list = nil
		return d.literal("null")
	case '[':
	default:
		return d.syntax("expected an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	s, n := *list, 0
	for {
		more, err := d.element(n == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n+len(*other) >= d.maxSources {
			return fmt.Errorf("%w: more than %d sources", ErrQuota, d.maxSources)
		}
		if n == len(s) {
			if n < cap(s) {
				s = s[:n+1]
			} else {
				var zero T
				s = append(s, zero)
			}
		}
		switch d.peek() {
		case 'n': // a null element leaves its slot as it is
			err = d.literal("null")
		case '{':
			err = elem(d, &s[n])
		default:
			err = d.syntax("expected an object")
		}
		if err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		s = []T{}
	}
	*list = s[:n]
	return nil
}

// stringOrNull consumes a null, or the opening quote of a string.
func (d *envelopeDecoder) stringOrNull() (isNull bool, err error) {
	switch d.peek() {
	case 'n':
		return true, d.literal("null")
	case '"':
		d.i++
		return false, nil
	}
	return false, d.syntax("expected a string")
}

// text decodes a string member; null leaves it as it was.
func (d *envelopeDecoder) text(dst *string) error {
	if isNull, err := d.stringOrNull(); isNull || err != nil {
		return err
	}
	s, err := d.unquote(d.name[:0], keepAll, false)
	if err != nil {
		return err
	}
	d.name = s
	*dst = string(s)
	return nil
}

// payloadData decodes a payload's data member into the decoder's data
// buffer, which is taken once, for the rest of the body: nothing decodes
// to more bytes than it occupies except malformed UTF-8. Once the body is
// decoded, a plain payload's bytes move to a copy of their own (own). A
// string that pointed at an anchor of the memo's view (markAt) is handed
// over as a patch of the anchor instead, its windows in the buffer.
func (d *envelopeDecoder) payloadData(p *runner.Payload) error {
	if isNull, err := d.stringOrNull(); isNull || err != nil {
		return err
	}
	if d.buf == nil {
		d.buf = payloadBuffer(min(int64(len(d.b)-d.i), d.budget))
		d.data = *d.buf
	}
	d.str++
	start, reused := len(d.data), d.reused
	d.cur = patching{data: start}
	out, err := d.unquote(d.data, d.budget, true)
	if err == errOverLimit {
		return fmt.Errorf("%w: payload bytes over the limit at offset %d", ErrTooLarge, d.i)
	}
	if err != nil {
		return err
	}
	d.budget -= int64(len(out)-start) + d.reused - reused
	d.data = out
	// Clipped: an append to one payload never writes into the next.
	p.Data, p.Patch = out[start:len(out):len(out)], nil
	if d.mark == nil {
		return nil
	}
	at := span{start + int(reused), len(out) + int(d.reused)}
	c, sp := &d.cur, d.cur.sp
	if sp == nil {
		d.strs = append(d.strs, dataStr{span: at, plain: p.Data})
		return nil
	}
	if c.from < len(sp.Anchor) || len(out) > c.data {
		sp.window(c.from, len(sp.Anchor), c.data, len(out))
	}
	for k, at := range sp.data {
		sp.Windows[k].Data = out[at.lo:at.hi:at.hi]
	}
	p.Data, p.Patch = nil, &sp.Patch
	d.strs = append(d.strs, dataStr{span: at, patch: sp})
	return nil
}

// member moves to the next member of the open object that is one of
// names and returns its index, the cursor on its value; members with
// other names are checked and skipped. After the closing brace it returns
// -1. first says that no member has been read yet.
func (d *envelopeDecoder) member(names [][]byte, first bool) (int, error) {
	for ; ; first = false {
		d.space()
		c := d.peek()
		if c == '}' {
			d.close()
			return -1, nil
		}
		if !first {
			if c != ',' {
				return 0, d.syntax("expected ',' or '}' after an object member")
			}
			d.i++
			d.space()
			c = d.peek()
		}
		if c != '"' {
			return 0, d.syntax("expected a string as object key")
		}
		d.i++
		// No known name is longer than 24 bytes under any folding, so a
		// key that does not fit is checked to its end and matches nothing.
		key, err := d.unquote(d.key[:0], int64(len(d.key)), false)
		if err == errOverLimit {
			key = nil
			_, err = d.unquote(nil, discard, false)
		}
		if err != nil {
			return 0, err
		}
		d.space()
		if d.peek() != ':' {
			return 0, d.syntax("expected ':' after object key")
		}
		d.i++
		d.space()
		for f, name := range names {
			if bytes.EqualFold(key, name) {
				return f, nil
			}
		}
		if err := d.skip(); err != nil {
			return 0, err
		}
	}
}

// element moves to the next element of the open array, the cursor on
// its value, or consumes the closing bracket and reports false.
func (d *envelopeDecoder) element(first bool) (bool, error) {
	d.space()
	c := d.peek()
	if c == ']' {
		d.close()
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, d.syntax("expected ',' or ']' after an array element")
		}
		d.i++
		d.space()
	}
	return true, nil
}

// skip checks one value of any type and keeps nothing of it. It recurses
// per nested array or object, which maxNesting bounds.
func (d *envelopeDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil, nil) // it knows no member, so it skips them all
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.element(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		d.i++
		_, err := d.unquote(nil, discard, false)
		return err
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.syntax("expected a value")
}

// number checks -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; what may
// follow it is the enclosing array's or object's business.
func (d *envelopeDecoder) number() error {
	if d.peek() == '-' {
		d.i++
	}
	if d.peek() == '0' {
		d.i++
	} else if !d.digits() {
		return d.syntax("expected a digit")
	}
	if d.peek() == '.' {
		d.i++
		if !d.digits() {
			return d.syntax("expected a digit after the decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.digits() {
			return d.syntax("expected a digit in the exponent")
		}
	}
	return nil
}

// digits consumes a run of digits and reports whether there was one.
func (d *envelopeDecoder) digits() bool {
	start := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	return d.i > start
}

func (d *envelopeDecoder) literal(word string) error {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		return d.syntax("expected " + word)
	}
	d.i += len(word)
	return nil
}

// plainByte marks the bytes a string holds as themselves: everything but
// the quote, the backslash, control bytes and the bytes of multi-byte
// characters.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// plainPrefix returns how many of the eight bytes of x, lowest first,
// plainByte marks, eight when all are. The top bit of a byte flags it: set
// in x from 0x80 up, in x − 0x20 for a byte below 0x20, and in (x ^ c) − 1
// for a byte equal to c, the quote or the backslash; any other byte these
// flag is at 0x80 or above already. Only a flagged byte borrows, and a
// borrow reaches only the bytes above it, so the lowest flag is exact.
func plainPrefix(x uint64) int {
	const ones, high = 0x0101010101010101, 0x8080808080808080
	special := (x | (x - 0x20*ones) | (x ^ '"'*ones - ones) | (x ^ '\\'*ones - ones)) & high
	return bits.TrailingZeros64(special) >> 3
}

// unquote reads a string from just past its opening quote (or from where
// an earlier call stopped with errOverLimit) through its closing quote,
// checking it as encoding/json's scanner does and appending to dst what
// encoding/json decodes it to: escapes expanded, a \u surrogate pair
// joined, a lone surrogate and each byte of malformed UTF-8 replaced by
// U+FFFD. It appends at most limit bytes and returns errOverLimit, the
// cursor on the unit that did not fit, when the string holds more; with
// limit discard it only checks. Decoding a payload's data (data) against
// a memo, it stops at the first token boundary at or past each chunk
// boundary — the boundary, or the end of the token straddling it — to
// mark it and maybe take on from the memo's view (the decoder's mark,
// markAt).
func (d *envelopeDecoder) unquote(dst []byte, limit int64, data bool) ([]byte, error) {
	b, i := d.b, d.i
	keep := limit >= 0
	next := math.MaxInt
	if data && d.mark != nil {
		next = d.next
	}
	for {
		if i >= next {
			i, dst, limit = d.mark(d, i, dst, limit)
			next = d.next
		}
		stop := min(len(b), next)
		// Eight bytes at a time while there is room for eight: copied
		// whole, kept as far as they are plain. The escapes a payload is
		// full of decode to one byte and are taken in the same loop: \"
		// \\ \n and the other one-letter ones, and \u00XX below 0x80,
		// which is how encoders write < > & and control bytes.
		if keep {
			out, o := dst[:cap(dst)], len(dst)
			for i+8 <= stop && o+8 <= len(out) && limit >= 8 {
				x := binary.LittleEndian.Uint64(b[i:])
				n := plainPrefix(x)
				binary.LittleEndian.PutUint64(out[o:], x)
				o += n
				limit -= int64(n)
				i += n
				if n == 8 {
					continue
				}
				if b[i] != '\\' || i+5 >= len(b) {
					break
				}
				// One byte still fits: there was room for eight.
				e := b[i+1]
				if c := oneByteEscape[e]; c != 0 {
					out[o] = c
					o++
					limit--
					i += 2
					continue
				}
				hi, lo := hexDigit[b[i+4]], hexDigit[b[i+5]]
				if e != 'u' || b[i+2] != '0' || b[i+3] != '0' || hi >= 8 || lo >= 16 {
					break
				}
				out[o] = hi<<4 | lo
				o++
				limit--
				i += 6
			}
			dst = out[:o]
		}
		run := i
		for i < stop && plainByte[b[i]] {
			i++
		}
		if keep && i > run {
			if int64(i-run) > limit {
				d.i = run + int(limit)
				return dst, errOverLimit
			}
			limit -= int64(i - run)
			dst = append(dst, b[run:i]...)
		}
		if i >= len(b) {
			d.i = i
			return dst, d.syntax("unexpected end of input in a string")
		}
		if i >= next {
			continue // a token boundary at or past a chunk boundary: mark it
		}
		var r rune
		size := 2
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return dst, nil
		case c < 0x20:
			d.i = i
			return dst, d.syntax("control character in a string")
		case c >= utf8.RuneSelf:
			r, size = utf8.DecodeRune(b[i:])
		case i+1 >= len(b):
			d.i = i + 1
			return dst, d.syntax("unexpected end of input in a string")
		default: // a backslash: plainByte lets nothing else through to here
			switch e := b[i+1]; {
			case oneByteEscape[e] != 0:
				r = rune(oneByteEscape[e])
			case e == 'u':
				if r = hex4(b, i+2); r < 0 {
					d.i = i
					return dst, d.syntax("invalid \\u escape in a string")
				}
				size = 6
				if utf16.IsSurrogate(r) {
					// Only a low half in the very next escape completes a
					// pair; otherwise this half alone is replaced and
					// nothing more is consumed.
					r2 := rune(-1)
					if i+7 < len(b) && b[i+6] == '\\' && b[i+7] == 'u' {
						r2 = hex4(b, i+8)
					}
					if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
						size = 12
					}
				}
			default:
				d.i = i
				return dst, d.syntax("invalid escape in a string")
			}
		}
		if keep {
			n := int64(utf8.RuneLen(r))
			if n > limit {
				d.i = i
				return dst, errOverLimit
			}
			limit -= n
			dst = utf8.AppendRune(dst, r)
		}
		i += size
	}
}

// oneByteEscape maps the letter of each one-letter escape to the byte it
// stands for, and every other byte to 0.
var oneByteEscape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hexDigit maps a hexadecimal digit, in either case, to its value and
// every other byte to 0xFF.
var hexDigit = func() (t [256]byte) {
	for c := range t {
		t[c] = 0xFF
	}
	for c := byte(0); c < 10; c++ {
		t['0'+c] = c
	}
	for c := byte(0); c < 6; c++ {
		t['a'+c], t['A'+c] = 10+c, 10+c
	}
	return t
}()

// hex4 decodes the four hexadecimal digits at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if len(b)-i < 4 {
		return -1
	}
	var r rune
	for _, c := range b[i : i+4] {
		v := hexDigit[c]
		if v > 15 {
			return -1
		}
		r = r<<4 | rune(v)
	}
	return r
}

func (d *envelopeDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 — which starts nothing and
// ends nothing in JSON — at the end of the body.
func (d *envelopeDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// open consumes the bracket or brace at the cursor.
func (d *envelopeDecoder) open() error {
	d.i++
	if d.depth++; d.depth > maxNesting {
		return d.syntax("exceeded max depth")
	}
	return nil
}

func (d *envelopeDecoder) close() {
	d.i++
	d.depth--
}

func (d *envelopeDecoder) syntax(msg string) error {
	return fmt.Errorf("offset %d: %s", d.i, msg)
}
