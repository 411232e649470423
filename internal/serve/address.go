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
// The memo serves the request's decode the same way. Beside the body it
// keeps the body's decoded payload bytes and a mark per chunk boundary:
// where the decode stood at the first token boundary at or after it
// inside a payload's data. A decode that reaches the same boundary in an
// equal chunk copies the memo's decoded bytes up to the last mark the
// equal chunks reach instead of unquoting them (decode, markAt), so a
// one-value request unquotes about two chunks of its payload, not all of
// it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"sync"

	"confvalley/internal/runner"
)

// addressChunk is the tree's chunk size.
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
// it, copied, with the digest of each of its chunks, and the decode of
// one body it held. Generations name the bodies: gen moves on each time
// body changes, and dataGen is the generation whose body data and marks
// decode (0: none). Chunks are compared and decoded bytes copied under
// the mutex; hashing and decoding run outside it. It never aliases a
// body it was given (the handler pools those) and never lends its
// decoded copy: a decode copies out of it into its own buffer, which is
// what the run is lent.
type addressMemo struct {
	mu   sync.Mutex
	body []byte
	sums [][sha256.Size]byte
	gen  uint64

	data    []byte
	marks   []mark
	dataGen uint64
	// spare is the marks buffer the next decode writes into: the decode
	// before last's, so a decode in steady state allocates none.
	spare []mark
}

// A mark is where a decode stood at one chunk boundary: the first token
// boundary at or after it inside a payload's data string, as a body
// offset (at) and an offset into the decoded bytes (out), and the
// string's place among the body's data strings (str). A token is a plain
// byte, an escape (a surrogate pair's two are one) or a multi-byte
// character, so the boundaries, and the marks, are the body's whatever
// way the decoder steps through it. same reports that the decoded bytes
// from this mark to the next were copied from the memo's decode at the
// same offsets.
type mark struct {
	at, out, str int
	same         bool
}

// An addressing is one body's addressing under a memo: its content
// address, the chunks it hashed and reused, and what its decode may take
// from the memo. equal[i] reports that chunk i equals chunk i of the body
// the memo held at generation base; own is the generation at which the
// memo held this body once it was addressed.
type addressing struct {
	id             string
	hashed, reused int
	equal          []bool
	base, own      uint64
}

// chunkEnd returns the end of the chunk starting at lo in a body of n
// bytes.
func chunkEnd(lo, n int) int {
	return min(lo+addressChunk, n)
}

// addressOf returns body's addressing and leaves body's bytes and digests
// in the memo; it keeps no reference into body. The chunk flags go in
// equal when it has room for them, and in a new slice when it does not.
func (m *addressMemo) addressOf(body []byte, equal []bool) addressing {
	n := (len(body) + addressChunk - 1) / addressChunk
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
	a.base = m.gen
	sameLen := len(m.body) == len(body)
	for i := range n {
		lo := i * addressChunk
		hi := chunkEnd(lo, len(body))
		a.equal[i] = lo < len(m.body) && bytes.Equal(m.body[lo:chunkEnd(lo, len(m.body))], body[lo:hi])
		if a.equal[i] {
			copy(sums[i*sha256.Size:], m.sums[i][:])
			a.reused++
		}
	}
	m.mu.Unlock()

	for i := range n {
		if !a.equal[i] {
			lo := i * addressChunk
			sum := sha256.Sum256(body[lo:chunkEnd(lo, len(body))])
			copy(sums[i*sha256.Size:], sum[:])
			a.hashed++
		}
	}
	a.own = a.base
	if a.hashed > 0 || !sameLen {
		a.own = m.update(body, sums, a.equal, a.base)
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
		for i, eq := range equal {
			if !eq {
				lo := i * addressChunk
				hi := chunkEnd(lo, len(body))
				copy(m.body[lo:hi], body[lo:hi])
				m.sums[i] = [sha256.Size]byte(sums[i*sha256.Size:])
			}
		}
	}
	m.gen++
	return m.gen
}

// decode decodes body, which a addressed under the memo, as
// decodeEnvelope does, copying the decoded bytes of its chunks that equal
// the memo's from the memo's decode where it can (markAt), and returns
// how many bytes it copied. When the memo still holds this body
// afterwards, a successful decode becomes the memo's and a failed one
// drops the memo's.
func (m *addressMemo) decode(a *addressing, body []byte, maxSources int, maxPayloadBytes int64) (payloads []runner.Payload, sources []SourceRef, buf *[]byte, copied int64, err error) {
	m.mu.Lock()
	marks := m.spare[:0]
	m.spare = nil
	m.mu.Unlock()
	if cap(marks) < len(a.equal) {
		marks = make([]mark, 0, len(a.equal))
	}
	d := envelopeDecoder{b: body, maxSources: maxSources, budget: max(maxPayloadBytes, 0), memo: m, base: a.base, marks: marks}
	d.equal = append(d.eq[:0], a.equal...)
	payloads, sources, buf, err = d.decode()
	m.keep(a.own, a.base, d.data, d.marks, err == nil)
	return payloads, sources, buf, d.copied, err
}

// keep ends a decode of the body of generation own, compared against
// generation base: when the memo still holds that body, a successful
// decode's bytes and marks become the memo's, copied, and a failed
// decode drops the memo's. The bytes the decode copied from the memo's
// decode at their own offsets are not copied back when the memo still
// holds that decode. The marks buffer the memo does not keep becomes the
// spare.
func (m *addressMemo) keep(own, base uint64, data []byte, marks []mark, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gen == own {
		if ok && m.dataGen == base && len(m.data) == len(data) {
			lo := 0
			for k, mk := range marks {
				if mk.same {
					copy(m.data[lo:mk.out], data[lo:mk.out])
					lo = marks[k+1].out
				}
			}
			copy(m.data[lo:], data[lo:])
		} else if ok {
			if cap(m.data) > 2*len(data) {
				m.data = nil
			}
			m.data = append(m.data[:0], data...)
		}
		if ok {
			m.marks, marks = marks, m.marks
			m.dataGen = own
		} else {
			m.data, m.marks, m.dataGen = nil, m.marks[:0], 0
		}
	}
	if m.spare == nil {
		m.spare = marks[:0]
	}
}

// markAt is unquote's stop inside a payload's data at token boundary i,
// at or past the next chunk boundary; dst and limit are unquote's. It
// marks every chunk boundary up to i at i. Then, when the memo's decode
// of the body the chunks were compared against marked i for the chunk i
// is in, it appends that decode's bytes from there to the furthest mark
// e such that the chunks from i's through e's are equal, mark e lies in
// the same string and the bytes fit in limit, and returns mark e's
// offset for the cursor. Chunk e must be equal too: the token that ends
// at mark e was decoded looking a few bytes past it. Otherwise it returns
// its arguments.
func (d *envelopeDecoder) markAt(i int, dst []byte, limit int64) (int, []byte, int64) {
	for d.next <= i {
		d.marks = append(d.marks, mark{at: i, out: len(dst), str: d.str})
		d.next += addressChunk
	}
	if d.next >= len(d.b) {
		d.next = math.MaxInt
	}
	c := len(d.marks) - 1
	if c+1 >= len(d.equal) || !d.equal[c] || !d.equal[c+1] {
		return i, dst, limit
	}
	m := d.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dataGen != d.base || c >= len(m.marks) || m.marks[c].at != i {
		return i, dst, limit
	}
	from, e := m.marks[c], c
	for k := c + 1; k < len(m.marks) && k < len(d.equal) && d.equal[k] &&
		m.marks[k].str == from.str && int64(m.marks[k].out-from.out) <= limit; k++ {
		e = k
	}
	if e == c {
		return i, dst, limit
	}
	shift := len(dst) - from.out
	d.marks[c].same = shift == 0
	for _, mk := range m.marks[c+1 : e] {
		d.marks = append(d.marks, mark{at: mk.at, out: mk.out + shift, str: d.str, same: shift == 0})
	}
	to := m.marks[e]
	dst = append(dst, m.data[from.out:to.out]...)
	n := int64(to.out - from.out)
	d.copied += n
	d.next = e * addressChunk
	return to.at, dst, limit - n
}

// resident returns what the memo keeps resident: the capacity of its
// body copy, its digests, its decoded copy and its two marks buffers.
func (m *addressMemo) resident() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(cap(m.body) + cap(m.sums)*sha256.Size + cap(m.data) + (cap(m.marks)+cap(m.spare))*markSize)
}

// markSize is the size of a mark: three ints and a bool, padded.
const markSize = 4 * bits.UintSize / 8
