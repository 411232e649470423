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

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
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
// it, copied, and the digest of each of its chunks. The invariant is
// pairwise: sums[i] is always the sha256 of body's chunk i, so a chunk
// the memo holds may be reused whatever mix of bodies wrote it. Chunks
// are compared under the mutex, misses are hashed outside it, and the
// memo is updated under it. It never aliases a body it was given: the
// handler pools those.
type addressMemo struct {
	mu   sync.Mutex
	body []byte
	sums [][sha256.Size]byte
}

// chunkEnd returns the end of the chunk starting at lo in a body of n
// bytes.
func chunkEnd(lo, n int) int {
	return min(lo+addressChunk, n)
}

// address returns body's content address and how many of its chunks
// were hashed and how many took the memo's digest, and leaves body's
// bytes and digests in the memo. It keeps no reference into body.
func (m *addressMemo) address(body []byte) (id string, hashed, reused int) {
	n := (len(body) + addressChunk - 1) / addressChunk
	var treeStack [addressHeader + stackChunks*sha256.Size]byte
	var missStack [stackChunks]bool
	var tree []byte
	var miss []bool
	if n <= stackChunks {
		tree, miss = treeStack[:addressHeader+n*sha256.Size], missStack[:n]
	} else {
		tree, miss = make([]byte, addressHeader+n*sha256.Size), make([]bool, n)
	}
	copy(tree, addressDomain)
	binary.LittleEndian.PutUint64(tree[len(addressDomain):], uint64(len(body)))
	sums := tree[addressHeader:]

	m.mu.Lock()
	sameLen := len(m.body) == len(body)
	for i := range n {
		lo := i * addressChunk
		hi := chunkEnd(lo, len(body))
		if lo < len(m.body) && bytes.Equal(m.body[lo:chunkEnd(lo, len(m.body))], body[lo:hi]) {
			copy(sums[i*sha256.Size:], m.sums[i][:])
			reused++
		} else {
			miss[i] = true
		}
	}
	m.mu.Unlock()

	for i := range n {
		if miss[i] {
			lo := i * addressChunk
			sum := sha256.Sum256(body[lo:chunkEnd(lo, len(body))])
			copy(sums[i*sha256.Size:], sum[:])
			hashed++
		}
	}
	if hashed > 0 || !sameLen {
		m.update(body, sums, miss)
	}

	top := sha256.Sum256(tree)
	var hexed [2 * sha256.Size]byte
	hex.Encode(hexed[:], top[:])
	return string(hexed[:]), hashed, reused
}

// update leaves body in the memo: the missed chunks' bytes and digests
// pair by pair when the memo holds a body of the same length, the whole
// body, in the memo's capacity unless that is over twice the body's, when
// it does not.
func (m *addressMemo) update(body, sums []byte, miss []bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.body) != len(body) {
		if cap(m.body) > 2*len(body) {
			m.body = nil // a body much shorter than the last does not keep its capacity
		}
		m.body = append(m.body[:0], body...)
		m.sums = m.sums[:0]
		for i := range miss {
			m.sums = append(m.sums, [sha256.Size]byte(sums[i*sha256.Size:]))
		}
		return
	}
	for i, missed := range miss {
		if missed {
			lo := i * addressChunk
			hi := chunkEnd(lo, len(body))
			copy(m.body[lo:hi], body[lo:hi])
			m.sums[i] = [sha256.Size]byte(sums[i*sha256.Size:])
		}
	}
}

// resident returns what the memo keeps resident: its body copy's and its
// digests' capacity.
func (m *addressMemo) resident() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return int64(cap(m.body) + cap(m.sums)*sha256.Size)
}
