package serve

// The content address (address.go) held to the stateless tree digest it
// is defined as, alone, under concurrency and through the service; the
// work it does, counted on /statsz; and the memo's lifetime and
// ownership of its bytes.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// treeAddress is the oracle: the content address computed from nothing
// but the body, every chunk hashed.
func treeAddress(body []byte) string {
	h := sha256.New()
	h.Write([]byte("confvalley content address v1\x00"))
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(body)))
	h.Write(n[:])
	for lo := 0; lo < len(body); lo += 64 << 10 {
		sum := sha256.Sum256(body[lo:min(lo+64<<10, len(body))])
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chunksOf is the number of chunks a body of n bytes is cut into.
func chunksOf(n int) int { return (n + addressChunk - 1) / addressChunk }

// FuzzContentAddress feeds one memo a sequence of bodies derived from
// the input and holds every address to the oracle. The bodies are one
// buffer edited in place, so a memo that aliased its input would see
// each edit before it is addressed and reuse a stale digest. The counts
// are held to the definition too: a chunk is reused iff the previous
// body has a chunk of the same bytes at its index. Each op is two bytes,
// a kind and an argument:
//
//	0 repeat               4 resize to one of 0, C−1, C, C+1, 2C
//	1 edit one byte        5 edit one byte in every chunk
//	2 grow past the next chunk boundary by arg%3 − 1 (C = 64 KB)
//	3 truncate to before the last boundary, by arg%3 − 1
//
// An edit lands at 0, C−1, C, C+1, the last byte or arg·997, by arg%6.
func FuzzContentAddress(f *testing.F) {
	const C = addressChunk
	f.Add(uint32(2*C+7), []byte{0, 0, 1, 0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 0, 0})
	f.Add(uint32(C), []byte{2, 2, 3, 0, 3, 1, 2, 0, 2, 1, 3, 2, 0, 0})
	f.Add(uint32(3*C-1), []byte{3, 1, 3, 1, 2, 2, 4, 0, 4, 1, 4, 2, 4, 3, 4, 1, 4, 4, 4, 3})
	f.Add(uint32(0), []byte{0, 0, 4, 3, 4, 2, 4, 1, 4, 2, 4, 0, 4, 4, 3, 0, 3, 0})
	f.Add(uint32(2*C), []byte{3, 2, 4, 1, 5, 0, 5, 4, 1, 4, 0, 0})
	f.Add(uint32(C+1), []byte{4, 2, 1, 3, 1, 1, 2, 1, 1, 4, 3, 0, 0, 0})

	f.Fuzz(func(t *testing.T, size uint32, ops []byte) {
		const maxLen = 4*C + 1
		if len(ops) > 64 {
			ops = ops[:64]
		}
		buf := make([]byte, maxLen)
		fill := func(lo, hi, round int) {
			for i := lo; i < hi; i++ {
				buf[i] = byte(i*31 + round*7)
			}
		}
		body := buf[:int(size%(maxLen+1))]
		fill(0, len(body), 0)
		resize := func(n, round int) {
			n = max(0, min(n, maxLen))
			if n > len(body) {
				fill(len(body), n, round)
			}
			body = buf[:n]
		}

		var m addressMemo
		var prev []byte // the last body addressed, nil before the first
		check := func(label string) {
			t.Helper()
			got, hashed, reused := m.address(body)
			if want := treeAddress(body); got != want {
				t.Fatalf("%s: %d-byte body addressed %s, want %s", label, len(body), got, want)
			}
			want := 0
			for lo := 0; lo < len(body); lo += C {
				if lo >= len(prev) || !bytes.Equal(prev[lo:min(lo+C, len(prev))], body[lo:min(lo+C, len(body))]) {
					want++
				}
			}
			if hashed != want || hashed+reused != chunksOf(len(body)) {
				t.Fatalf("%s: %d-byte body after a %d-byte one hashed %d and reused %d chunks, want %d hashed of %d",
					label, len(body), len(prev), hashed, reused, want, chunksOf(len(body)))
			}
			prev = append(prev[:0], body...)
		}
		check("first")
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg, round := ops[i]%6, int(ops[i+1]), i/2+1
			at := func(k int) int {
				switch k % 6 {
				case 0:
					return 0
				case 1:
					return C - 1
				case 2:
					return C
				case 3:
					return C + 1
				case 4:
					return len(body) - 1
				}
				return arg * 997
			}
			switch kind {
			case 1:
				if off := at(arg); off >= 0 && off < len(body) {
					body[off]++
				}
			case 2:
				resize((len(body)/C+1)*C+arg%3-1, round)
			case 3:
				resize((len(body)-1)/C*C+arg%3-1, round)
			case 4:
				resize([]int{0, C - 1, C, C + 1, 2 * C}[arg%5], round)
			case 5:
				for lo := 0; lo < len(body); lo += C {
					body[min(lo+arg, len(body)-1)]++
				}
			}
			check(fmt.Sprintf("op %d (kind %d, arg %d)", i/2, kind, arg))
		}
	})
}

// nonceDoc is a KV document of about size bytes that the address tests
// send: a fixed-width nonce no spec reads, then the timeout, then unread
// padding.
func nonceDoc(nonce, timeout, size int) string {
	head := fmt.Sprintf("bench.nonce = %010d\napp.timeout = %d\n", nonce, timeout)
	return head + strings.Repeat("pad.key = value\n", max(0, size-len(head))/16)
}

// The work of addressing, read from /statsz: a byte-identical repeat
// hashes no chunk, a body stamped with a new nonce (the novel_xml
// operation's shape) hashes the one chunk the nonce is in, and a body one
// byte longer re-hashes from its first differing chunk on. The counters
// are counts, not times.
func TestRepeatHashesNoChunk(t *testing.T) {
	_, c := testClient(t, Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, "one", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	last, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// send posts body and returns how many chunks it hashed and reused.
	send := func(body []byte) (hashed, reused int64) {
		t.Helper()
		resp, err := c.HTTP.Post(c.url("v1", "tenants", "acme", "specs", "one", "validate"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Tenants) != 1 || st.Tenants[0].AddressStats != st.AddressStats {
			t.Fatalf("the one tenant's address counters %+v are not the totals %+v", st.Tenants, st.AddressStats)
		}
		hashed, reused = st.ChunksHashed-last.ChunksHashed, st.ChunksReused-last.ChunksReused
		last = st
		return hashed, reused
	}

	body := requestBody(t, kvRequest(nonceDoc(0, 30, 5*addressChunk+100)))
	n := int64(chunksOf(len(body)))
	if h, r := send(body); h != n || r != 0 {
		t.Errorf("first body: hashed %d and reused %d chunks, want %d and 0", h, r, n)
	}
	if last.MemoBytes < int64(len(body)) {
		t.Errorf("address_memo_bytes %d after a %d-byte body, want at least the body", last.MemoBytes, len(body))
	}
	hits := last.ResultCacheHits
	if h, r := send(body); h != 0 || r != n {
		t.Errorf("byte-identical repeat: hashed %d and reused %d chunks, want 0 and %d", h, r, n)
	}
	if last.ResultCacheHits != hits+1 {
		t.Errorf("the repeat was not a result-cache hit")
	}

	stamped := requestBody(t, kvRequest(nonceDoc(1, 30, 5*addressChunk+100)))
	if len(stamped) != len(body) {
		t.Fatalf("stamping the nonce changed the body's length")
	}
	if h, r := send(stamped); h != 1 || r != n-1 {
		t.Errorf("nonce stamped: hashed %d and reused %d chunks, want 1 and %d", h, r, n-1)
	}

	// One byte more in a padding key in the third chunk.
	doc := nonceDoc(1, 30, 5*addressChunk+100)
	at := 2*addressChunk + strings.Index(doc[2*addressChunk:], "pad.key")
	longer := requestBody(t, kvRequest(doc[:at]+"x"+doc[at:]))
	first := 0
	for longer[first] == stamped[first] {
		first++
	}
	if first < addressChunk {
		t.Fatalf("the longer body differs in its first chunk")
	}
	want := int64(chunksOf(len(longer)) - first/addressChunk)
	if h, r := send(longer); h != want || r != int64(chunksOf(len(longer)))-want {
		t.Errorf("one byte longer from chunk %d: hashed %d and reused %d chunks, want %d hashed", first/addressChunk, h, r, want)
	}
}

// The decode's share of the memo, read from /statsz: a spec's first body
// copies nothing, a body stamped with a new nonce in its first chunk
// copies all its decoded bytes but those of that chunk and the last, a
// byte-identical repeat is a result-cache hit and decodes nothing, and
// address_memo_bytes counts the decoded copy beside the body's.
func TestDecodeCopiesFromMemo(t *testing.T) {
	_, c := testClient(t, Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, "one", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	var last StatsInfo
	// send posts body and returns how many decoded bytes it copied.
	send := func(body []byte) int64 {
		t.Helper()
		resp, err := c.HTTP.Post(c.url("v1", "tenants", "acme", "specs", "one", "validate"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Tenants) != 1 || st.Tenants[0].AddressStats != st.AddressStats {
			t.Fatalf("the one tenant's address counters %+v are not the totals %+v", st.Tenants, st.AddressStats)
		}
		copied := st.BytesReused - last.BytesReused
		last = st
		return copied
	}

	doc := nonceDoc(0, 30, 5*addressChunk+100)
	body := requestBody(t, kvRequest(doc))
	if n := send(body); n != 0 {
		t.Errorf("first body copied %d bytes", n)
	}
	if last.MemoBytes < int64(len(body)+len(doc)) {
		t.Errorf("address_memo_bytes %d after a %d-byte body of %d payload bytes, want at least both", last.MemoBytes, len(body), len(doc))
	}
	stamped := requestBody(t, kvRequest(nonceDoc(1, 30, 5*addressChunk+100)))
	if n := send(stamped); n < int64(len(doc)-2*addressChunk) || n > int64(len(doc)) {
		t.Errorf("nonce stamped in the first chunk: copied %d of %d payload bytes, want all but about two chunks' worth", n, len(doc))
	}
	if n := send(stamped); n != 0 {
		t.Errorf("byte-identical repeat copied %d bytes, want 0: it is a cache hit", n)
	}
}

// Eight goroutines send three bodies in rotation to one spec: two of one
// length that differ in one chunk, and a longer one, so the memo is
// compared, patched and rebuilt under every interleaving. Every address
// is the oracle's and every response a cold interpreter run's.
func TestConcurrentAddressMemo(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	entry, err := acmeTenant(t, srv).spec("checks")
	if err != nil {
		t.Fatal(err)
	}
	const size = 3*addressChunk + 500
	docs := []string{
		strings.Repeat("pad.key = value\n", 2*addressChunk/16) + "app.timeout = 30\napp.retries = 2\ndb.host = a\n",
		strings.Repeat("pad.key = value\n", 2*addressChunk/16) + "app.timeout = 99\napp.retries = 2\ndb.host = a\n",
		strings.Repeat("pad.key = value\n", 2*addressChunk/16) + "app.timeout = 30\napp.retries = 9\ndb.host = a\n" + strings.Repeat("x.y = z\n", size/8),
	}
	var bodies [][]byte
	var addrs []string
	var colds [][]byte
	for _, d := range docs {
		b := requestBody(t, kvRequest(d))
		bodies, addrs = append(bodies, b), append(addrs, treeAddress(b))
		colds = append(colds, coldReference(t, cacheSpec, []byte(d)))
	}
	if len(bodies[0]) != len(bodies[1]) || len(bodies[2]) <= len(bodies[0]) || chunksOf(len(bodies[0])) < 3 {
		t.Fatal("the rotation's bodies do not have the lengths the test needs")
	}

	const workers, rounds = 8, 12
	var wg sync.WaitGroup
	resps := make([]*ValidateResponse, workers*rounds)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (g + i) % len(bodies)
				if id, _, _ := entry.addr.address(bodies[k]); id != addrs[k] {
					t.Errorf("body %d addressed %s, want %s", k, id, addrs[k])
				}
				resp, err := srv.ValidateBody(ctx, "acme", "checks", bodies[k])
				if err != nil {
					t.Error(err)
				}
				resps[g*rounds+i] = resp
			}
		}(g)
	}
	wg.Wait()
	for j, resp := range resps {
		k := (j/rounds + j%rounds) % len(bodies)
		if resp == nil {
			continue
		}
		if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, colds[k]) {
			t.Errorf("body %d answered\n%s\nwant the cold run's\n%s", k, got, colds[k])
		}
	}
	st := srv.Stats()
	var chunks int64
	for g := 0; g < workers; g++ {
		for i := 0; i < rounds; i++ {
			chunks += int64(chunksOf(len(bodies[(g+i)%len(bodies)])))
		}
	}
	if st.ChunksHashed+st.ChunksReused != chunks {
		t.Errorf("%d chunks hashed and %d reused over %d requests of %d chunks in all", st.ChunksHashed, st.ChunksReused, workers*rounds, chunks)
	}
}

// acmeTenant returns the server's acme tenant.
func acmeTenant(t *testing.T, s *Server) *tenant {
	t.Helper()
	tn, err := s.tenantFor("acme", false)
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// A spec's memo is its registration's: re-registering or deleting the
// spec drops it, address_memo_bytes falls with it, and the body copy it
// held is collected.
func TestAddressMemoDiesWithSpec(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	body := requestBody(t, kvRequest(nonceDoc(0, 30, 2*addressChunk)))
	var collected atomic.Int32
	// validate validates body under name and tracks the memo's body copy.
	validate := func(name string) {
		t.Helper()
		if _, err := srv.ValidateBody(ctx, "acme", name, body); err != nil {
			t.Fatal(err)
		}
		entry, err := acmeTenant(t, srv).spec(name)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(&entry.addr.body[0], func(*byte) { collected.Add(1) })
	}
	for _, name := range []string{"kept", "replaced", "deleted"} {
		if _, err := srv.RegisterSpec("acme", name, timeoutSpec); err != nil {
			t.Fatal(err)
		}
		validate(name)
	}
	full := srv.Stats().MemoBytes
	if full < 3*int64(len(body)) {
		t.Fatalf("address_memo_bytes %d for three specs validated on a %d-byte body", full, len(body))
	}
	if _, err := srv.RegisterSpec("acme", "replaced", "$app.timeout -> int"); err != nil {
		t.Fatal(err)
	}
	afterReplace := srv.Stats().MemoBytes
	if err := srv.DeleteSpec("acme", "deleted"); err != nil {
		t.Fatal(err)
	}
	afterDelete := srv.Stats().MemoBytes
	if afterReplace != full*2/3 || afterDelete != full/3 {
		t.Errorf("address_memo_bytes %d, then %d after a re-registration and %d after a deletion, want it to fall by a third each time",
			full, afterReplace, afterDelete)
	}
	for i := 0; i < 20 && collected.Load() < 2; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != 2 {
		t.Errorf("%d of 2 retired memos' body copies were collected (the live one must not be)", got)
	}
	runtime.KeepAlive(srv)
}

// The memo copies what it is given. A body released the way the handler
// releases it (poisoned under test) leaves the memo holding its bytes, so
// the same bytes sent again hash no chunk and hit the cached response.
func TestAddressMemoOwnsItsBytes(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "one", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, kvRequest(nonceDoc(0, 30, 3*addressChunk)))
	pooled := bytes.Clone(body)
	if _, err := srv.ValidateBody(ctx, "acme", "one", pooled); err != nil {
		t.Fatal(err)
	}
	releaseBody(&pooled)
	if pooled[0] != 0xFF {
		t.Fatal("released bodies are not poisoned in this test binary")
	}
	before := srv.Stats()
	if _, err := srv.ValidateBody(ctx, "acme", "one", body); err != nil {
		t.Fatal(err)
	}
	after := srv.Stats()
	if h := after.ChunksHashed - before.ChunksHashed; h != 0 {
		t.Errorf("the same bytes after the first body's buffer was released hashed %d chunks, want 0: the memo aliased the body", h)
	}
	if after.ResultCacheHits != before.ResultCacheHits+1 {
		t.Error("the same bytes after the first body's buffer was released missed the result cache")
	}
}

// Addressing a repeated 4 MB body allocates the address and nothing in
// proportion to the body.
func TestRepeatAddressAllocates(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 4<<20/16)
	var m addressMemo
	m.address(body)
	const runs = 20
	if per := allocatedBy(func() {
		for i := 0; i < runs; i++ {
			m.address(body)
		}
	}) / runs; per > 1<<10 {
		t.Errorf("addressing a repeated %d-byte body allocated %d bytes, want at most 1 KB", len(body), per)
	}
}

// BenchmarkContentAddress times addressing a body the size of the
// novel_xml request (seed 1: 5,117,877 bytes, 79 chunks) three ways: byte-identical to the last
// (repeat), one chunk changed, as a stamped nonce changes it (one-chunk),
// and every chunk changed at its last byte, so each is compared in full,
// hashed and copied into the memo (fresh).
func BenchmarkContentAddress(b *testing.B) {
	body := bytes.Repeat([]byte("<Setting Key=\"k\" Value=\"v\"/>\n"), 5_117_877/29+1)[:5_117_877]
	for _, bc := range []struct {
		name  string
		stamp func(i int)
	}{
		{"repeat", func(int) {}},
		{"one-chunk", func(i int) { body[3*addressChunk+17] = byte(i) }},
		{"fresh", func(i int) {
			for lo := 0; lo < len(body); lo += addressChunk {
				body[min(lo+addressChunk, len(body))-1] = byte(i)
			}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var m addressMemo
			m.address(body)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.stamp(i + 1)
				m.address(body)
			}
		})
	}
}

// address is addressOf for a caller that only wants the address and the
// chunk counts.
func (m *addressMemo) address(body []byte) (id string, hashed, reused int) {
	var equal [stackChunks]bool
	a := m.addressOf(body, equal[:])
	return a.id, a.hashed, a.reused
}
