package serve

// The decode against the memo's anchor (address.go: decode, markAt) held
// to the memo-less decoder it stands in for, alone over edited bodies and
// through the service under concurrency.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"confvalley/internal/runner"
)

// reuseUnits are what the fuzzed payload data is made of, as they are
// encoded in the body: plain bytes and runs, every kind of escape, two
// surrogate pairs, a multi-byte character and a malformed byte, each one
// token or a few. Units of one length are interchangeable as a value
// change that keeps the body's length.
var reuseUnits = []string{
	"x", "y", "\xff",
	`\\`, `\t`, `\/`, "é",
	`\"q\"`, `\u00e9`, `\u003c`, `\u0041`,
	`plain text `, `PLAIN TEXT `,
	`key = value\n`, `KEY = VALUE\n`,
	`\ud83d\ude00`, `\ud800\udc00`,
}

// fuzzChunk is the chunk size the decode fuzzers' memos cut bodies into:
// a body of a few kilobytes then crosses as many chunk edges as a
// production body of a few hundred, and a fuzzer runs at the speed of
// its edges rather than of its bytes.
const fuzzChunk = 256

// reuseHead opens the fuzzed request's one payload's data string.
const reuseHead = `{"payloads":[{"name":"a.kv","format":"kv","data":"`

// reuseDoc is a fuzzed request: the units of the first payload's data and
// what follows them in the body.
type reuseDoc struct {
	units []string
	tail  string
}

// render encodes the request.
func (r *reuseDoc) render() []byte {
	b := []byte(reuseHead)
	for _, u := range r.units {
		b = append(b, u...)
	}
	return append(b, r.tail...)
}

// unitAt returns the index of the unit the body byte at off is in, or
// len(units) past the data.
func (r *reuseDoc) unitAt(off int) int {
	at := len(reuseHead)
	for i, u := range r.units {
		if at += len(u); at > off {
			return i
		}
	}
	return len(r.units)
}

// unitsOf returns units adding up to about n bytes, in an order set by
// seed.
func unitsOf(n int, seed int) []string {
	var us []string
	for i := 0; n > 0; i++ {
		u := reuseUnits[(i*(2*seed+1)+i/7+seed)%len(reuseUnits)]
		us, n = append(us, u), n-len(u)
	}
	return us
}

// FuzzDecodeReuse feeds one memo, and the copying memo it replaced, a
// sequence of request bodies derived from the input, each addressed and
// decoded against the memo as ValidateBody does, and holds every decode
// to a memo-less decodeEnvelope of the same bytes under the same byte
// budget, and to the copying memo's decode: the same payloads — a plain
// one clipped to its bytes, a patch materialising to them — and sources,
// or the same error text, offset included. Each decode then becomes the
// memo's view of the anchors a lineage would report: the first body, and
// each body whose op has its top bit set, is kept as a full parse keeps
// it, its payloads' bytes the new anchors; the others are released, as a
// re-parse releases them, against the anchors kept last, whatever body
// they were. The bytes of a kept decode must not change when the memo
// takes a later one. Each op is two bytes, a kind (the low seven bits,
// modulo 12) and an argument, and edits the units at a position,
// persistently unless it says otherwise:
//
//	0 flip one byte (this body only)    6 insert `"},{"data":"`: a string ends and one begins
//	1 change a unit, same length        7 grow: insert a chunk's worth of units
//	2 change a unit, other length       8 delete a chunk's worth of units, or (arg odd)
//	3 insert 1–3 units                    cut the body short (this body only)
//	4 delete 1–3 units                  9 add a second payload after the first, or drop it
//	5 make the unit an escape that     10 cut the byte budget to arg%4 chunks + arg·C/1024 bytes,
//	  ends arg%12 bytes past a boundary     or lift it (arg 255)
//	11 make the unit a lone backslash, shifting how the backslashes after it pair
//
// A position is a chunk boundary c·C − 16 … +15 (arg < 128, c =
// 1 + arg%3), or arg·C/64 into the body. Both memos cut bodies into
// chunks of C = fuzzChunk bytes.
func FuzzDecodeReuse(f *testing.F) {
	const C = fuzzChunk
	f.Add(uint32(C), []byte{0, 1, 1, 2, 1, 130, 2, 5, 3, 9, 0, 200, 4, 0, 1, 3})
	f.Add(uint32(100|1<<17), []byte{5, 0, 5, 5, 5, 11, 5, 130, 1, 4, 11, 8, 1, 0, 11, 0})
	f.Add(uint32(7|2<<17), []byte{10, 1, 1, 40, 10, 2, 1, 130, 10, 255, 1, 3, 10, 65, 1, 66})
	f.Add(uint32(5000|3<<17), []byte{7, 3, 1, 12, 8, 0, 8, 201, 9, 7, 1, 66, 8, 1, 1, 1, 9, 0, 1, 9})
	f.Add(uint32(C/2|4<<17), []byte{6, 20, 1, 80, 6, 140, 2, 44, 4, 45, 1, 44})
	f.Add(uint32(C+17|5<<17), []byte{11, 12, 1, 12, 11, 13, 1, 12, 5, 6, 1, 1})
	f.Add(uint32(31|6<<17), []byte{9, 3, 1, 30, 10, 2, 1, 30, 10, 0, 1, 31})
	f.Add(uint32(3|7<<17), []byte{5, 1, 1, 64, 5, 2, 1, 100, 5, 3, 1, 65, 5, 9, 1, 70})
	// Anchors moving on: kept bodies between one-value changes, a kept
	// structural edit, a kept second payload.
	f.Add(uint32(C|8<<17), []byte{1, 1, 129, 2, 1, 3, 1, 2, 131, 4, 1, 3, 1, 1, 137, 9, 1, 2, 1, 130})
	f.Add(uint32(2*C|9<<17), []byte{1, 5, 1, 130, 129, 66, 1, 5, 1, 130, 134, 20, 1, 5, 1, 140})
	// Changes that move from chunk to chunk and stay, against one anchor:
	// the view's windows pile up.
	f.Add(uint32(3*C|10<<17), []byte{1, 1, 1, 2, 1, 3, 1, 4, 2, 5, 1, 6, 1, 200, 1, 1, 1, 2})

	f.Fuzz(func(t *testing.T, size uint32, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		doc := reuseDoc{units: unitsOf(2*C+int(size%(3*C/2)), int(size>>17)%64), tail: `"}]}`}
		budget := int64(math.MaxInt64)
		m := addressMemo{chunk: C}
		old := copyingMemo{chunk: C}
		var anchors [][]byte // the payloads' bytes of the decode kept last
		var lentWas []string // what they were then
		check := func(label string, body []byte, keep bool) {
			t.Helper()
			var equal [stackChunks]bool
			a := m.addressOf(body, equal[:])
			dec, gotErr := m.decode(&a, body, math.MaxInt, budget)
			got, gotSrc := dec.payloads, dec.sources
			want, wantSrc, _, wantErr := decodeEnvelope(body, math.MaxInt, budget)
			copied, copiedSrc, copiedErr := old.decode(body, math.MaxInt, budget)
			for i, p := range anchors {
				if string(p) != lentWas[i] {
					t.Fatalf("%s: payload %d of a kept decode changed under a later one", label, i)
				}
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(copiedErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %d-byte body, budget %d: decoded with the memo to error %v, with the copying memo to %v, without to %v", label, len(body), budget, gotErr, copiedErr, wantErr)
			}
			if (got == nil) != (want == nil) || len(got) != len(want) || !reflect.DeepEqual(gotSrc, wantSrc) {
				t.Fatalf("%s: shapes differ: %d payloads %v, want %d %v", label, len(got), gotSrc, len(want), wantSrc)
			}
			if !reflect.DeepEqual(copied, want) || !reflect.DeepEqual(copiedSrc, wantSrc) {
				t.Fatalf("%s: the copying memo decoded %d payloads %v, want %d %v", label, len(copied), copiedSrc, len(want), wantSrc)
			}
			var data [][]byte
			for i, w := range want {
				g := got[i]
				gd := g.Data
				if g.Patch != nil {
					if g.Data != nil {
						t.Fatalf("%s: payload %d is a patch with data", label, i)
					}
					gd = g.Patch.Bytes()
				}
				if g.Name != w.Name || g.Format != w.Format || g.Scope != w.Scope || !bytes.Equal(gd, w.Data) {
					at := 0
					for at < min(len(gd), len(w.Data)) && gd[at] == w.Data[at] {
						at++
					}
					t.Fatalf("%s: payload %d differs (%d bytes, want %d; first difference at %d)", label, i, len(gd), len(w.Data), at)
				}
				if cap(gd) != len(gd) {
					t.Fatalf("%s: payload %d: %d bytes with capacity %d", label, i, len(gd), cap(gd))
				}
				data = append(data, gd)
			}
			switch {
			case gotErr != nil:
				m.finish(&dec, nil)
			case keep:
				m.finish(&dec, data)
				anchors, lentWas = data, lentWas[:0]
				for _, gd := range data {
					lentWas = append(lentWas, string(gd))
				}
			default:
				reported := make([][]byte, len(data))
				copy(reported, anchors)
				m.finish(&dec, reported)
			}
		}
		check("first", doc.render(), true)
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg, keep := ops[i]&127%12, int(ops[i+1]), ops[i]&128 != 0
			at := arg * C / 64
			if arg < 128 {
				at = (1+arg%3)*C - 16 + arg/4
			}
			u := doc.unitAt(at)
			in := u < len(doc.units)
			body := []byte(nil) // set by the ops that change this body only
			switch {
			case kind == 0:
				body = doc.render()
				body[min(at, len(body)-1)] ^= 1 << (arg % 7)
			case kind == 1 && in:
				var same []string
				for _, v := range reuseUnits {
					if len(v) == len(doc.units[u]) && v != doc.units[u] {
						same = append(same, v)
					}
				}
				if len(same) > 0 {
					doc.units[u] = same[arg%len(same)]
				}
			case kind == 2 && in:
				if v := reuseUnits[arg%len(reuseUnits)]; len(v) != len(doc.units[u]) {
					doc.units[u] = v
				}
			case kind == 3:
				for k := 0; k <= arg%3; k++ {
					doc.units = slices.Insert(doc.units, u, reuseUnits[(arg+5*k)%len(reuseUnits)])
				}
			case kind == 4:
				doc.units = slices.Delete(doc.units, u, min(u+arg%3+1, len(doc.units)))
			case kind == 5:
				// The escape ends arg%12 bytes past boundary c: the units
				// before it are cut or padded with plain bytes to fit.
				esc := []string{`\u00e9`, `\ud83d\ude00`, `\\`, `\u0041`}[arg%4]
				end := (1+arg%3)*C + arg%12
				v := doc.unitAt(end - len(esc))
				if v == len(doc.units) {
					break
				}
				lo := len(reuseHead)
				for _, w := range doc.units[:v] {
					lo += len(w)
				}
				fit := make([]string, end-len(esc)-lo, end-len(esc)-lo+1)
				for k := range fit {
					fit[k] = "x"
				}
				doc.units = slices.Insert(slices.Delete(doc.units, v, v+1), v, append(fit, esc)...)
			case kind == 6:
				doc.units = slices.Insert(doc.units, u, `"},{"data":"`)
			case kind == 7:
				doc.units = slices.Insert(doc.units, u, unitsOf(C, arg)...)
			case kind == 8 && arg%2 == 0:
				n := 0
				for v := u; v < len(doc.units) && n < C; v++ {
					n += len(doc.units[v])
				}
				doc.units = slices.Delete(doc.units, u, doc.unitAt(at+n))
			case kind == 8:
				body = doc.render()
				body = body[:min(at, len(body))]
			case kind == 9:
				if doc.tail == `"}]}` {
					doc.tail = `"},{"scope":"s","data":"` + strings.Repeat(`a\"b`, arg*C/1024) + `"}]}`
				} else {
					doc.tail = `"}]}`
				}
			case kind == 10:
				budget = int64(arg%4*C + arg*C/1024)
				if arg == 255 {
					budget = math.MaxInt64
				}
			case kind == 11 && in:
				doc.units[u] = "\\"
			}
			if body == nil {
				body = doc.render()
			}
			check(fmt.Sprintf("op %d (kind %d, arg %d, kept %v)", i/2, kind, arg, keep), body, keep)
		}
	})
}

// Four goroutines send six bodies in rotation to one spec through
// ValidateBody, each from a pooled body buffer released (and, in this
// test binary, poisoned) when the call returns: a base body, two
// one-value changes in different chunks, the base payload escaped two
// other ways, and the base one line longer. Whatever interleaving the
// memo's generations see, every report is the one a fresh server gives
// for the same body, and a body sent after the base alone decodes from
// the memo.
func TestConcurrentDecodeReuse(t *testing.T) {
	ctx := context.Background()
	pad := strings.Repeat("pad.key = <v/> & </w>\n", 3*addressChunk/22)
	doc := func(timeout, retries int, extra string) string {
		return extra + pad[:len(pad)/2] + fmt.Sprintf("app.timeout = %02d\napp.retries = %d\ndb.host = a\n", timeout, retries) + pad[len(pad)/2:] + "db.port = 1\n"
	}
	unescaped := func(d string) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(kvRequest(d)); err != nil {
			t.Fatal(err)
		}
		return bytes.TrimSpace(b.Bytes())
	}
	base := requestBody(t, kvRequest(doc(30, 2, "")))
	bodies := [][]byte{
		base,
		requestBody(t, kvRequest(doc(99, 2, ""))),
		requestBody(t, kvRequest(doc(30, 9, ""))),
		unescaped(doc(30, 2, "")),
		bytes.ReplaceAll(base, []byte("/"), []byte(`\/`)),
		requestBody(t, kvRequest(doc(30, 2, "pad.key = first\n"))),
	}
	if len(bodies[1]) != len(base) || chunksOf(len(base)) < 3 {
		t.Fatal("the bodies do not have the shapes the test needs")
	}
	want := make([][]byte, len(bodies))
	for i, b := range bodies {
		fresh := New(Config{})
		if _, err := fresh.RegisterSpec("acme", "checks", cacheSpec); err != nil {
			t.Fatal(err)
		}
		resp, err := fresh.ValidateBody(ctx, "acme", "checks", b)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wireModuloCaching(t, resp.Report)
	}

	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "checks", cacheSpec); err != nil {
		t.Fatal(err)
	}
	// send validates body k from a pooled buffer and checks the report.
	send := func(k int) {
		p, _ := bodyPool.Get().(*[]byte)
		if p == nil {
			p = new([]byte)
		}
		*p = append((*p)[:0], bodies[k]...)
		resp, err := srv.ValidateBody(ctx, "acme", "checks", *p)
		releaseBody(p)
		if err != nil {
			t.Error(err)
			return
		}
		if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, want[k]) {
			t.Errorf("body %d answered\n%s\nwant a fresh server's\n%s", k, got, want[k])
		}
	}
	send(0)
	send(1)
	if st := srv.Stats(); st.BytesReused == 0 {
		t.Fatal("a one-value body sent after the base copied nothing from the memo")
	}

	const workers, rounds = 4, 6
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*len(bodies); i++ {
				send((g + i) % len(bodies))
			}
		}(g)
	}
	wg.Wait()
}

// copyingMemo is the decode memo the view replaced, kept as an oracle for
// the decode that takes from a view: beside the last body it keeps that
// body's decoded payload bytes, copied, with the decode's marks, and a
// decode copies the decoded bytes of each run of chunks equal to the last
// body's out of them (markAt) instead of unquoting them. Its markAt and
// keep are the old ones, over the oracle's own fields and marks; it
// addresses a body by comparing its chunks, of chunk bytes, with the
// last one's.
type copyingMemo struct {
	chunk   int
	body    []byte
	gen     uint64
	data    []byte
	marks   []copyMark
	dataGen uint64
	spare   []copyMark
}

// A copyMark is the old mark: a mark, and same, which reports that the
// decoded bytes from this mark to the next were copied from the memo's
// decode at the same offsets.
type copyMark struct {
	at, out, str int
	same         bool
}

// copyingDecode is one decode's state beside the decoder's: the memo,
// the chunk flags, the generation they were compared against, the marks
// it leaves and the bytes it copied.
type copyingDecode struct {
	memo   *copyingMemo
	equal  []bool
	base   uint64
	marks  []copyMark
	copied int64
}

// decode decodes body as decodeEnvelope does, through the old markAt, and
// keeps the decode as the old memo kept it.
func (m *copyingMemo) decode(body []byte, maxSources int, maxPayloadBytes int64) ([]runner.Payload, []SourceRef, error) {
	n := (len(body) + m.chunk - 1) / m.chunk
	c := &copyingDecode{memo: m, equal: make([]bool, n), base: m.gen, marks: m.spare[:0]}
	m.spare = nil
	for i := range n {
		lo := i * m.chunk
		c.equal[i] = lo < len(m.body) && bytes.Equal(m.body[lo:chunkEnd(lo, m.chunk, len(m.body))], body[lo:chunkEnd(lo, m.chunk, len(body))])
	}
	if !bytes.Equal(m.body, body) {
		m.body = bytes.Clone(body)
		m.gen++
	}
	d := envelopeDecoder{b: body, maxSources: maxSources, budget: max(maxPayloadBytes, 0), mark: c.markAt}
	payloads, sources, _, err := d.decode()
	m.keep(m.gen, c.base, d.data, c.marks, err == nil)
	return payloads, sources, err
}

// markAt is the old markAt: unquote's stop inside a payload's data at
// token boundary i, at or past the next chunk boundary; dst and limit are
// unquote's. It marks every chunk boundary up to i at i. Then, when the
// memo's decode of the body the chunks were compared against marked i for
// the chunk i is in, it appends that decode's bytes from there to the
// furthest mark e such that the chunks from i's through e's are equal,
// mark e lies in the same string and the bytes fit in limit, and returns
// mark e's offset for the cursor. Chunk e must be equal too: the token
// that ends at mark e was decoded looking a few bytes past it. Otherwise
// it returns its arguments.
func (o *copyingDecode) markAt(d *envelopeDecoder, i int, dst []byte, limit int64) (int, []byte, int64) {
	for d.next <= i {
		o.marks = append(o.marks, copyMark{at: i, out: len(dst), str: d.str})
		d.next += o.memo.chunk
	}
	if d.next >= len(d.b) {
		d.next = math.MaxInt
	}
	c := len(o.marks) - 1
	if c+1 >= len(o.equal) || !o.equal[c] || !o.equal[c+1] {
		return i, dst, limit
	}
	m := o.memo
	if m.dataGen != o.base || c >= len(m.marks) || m.marks[c].at != i {
		return i, dst, limit
	}
	from, e := m.marks[c], c
	for k := c + 1; k < len(m.marks) && k < len(o.equal) && o.equal[k] &&
		m.marks[k].str == from.str && int64(m.marks[k].out-from.out) <= limit; k++ {
		e = k
	}
	if e == c {
		return i, dst, limit
	}
	shift := len(dst) - from.out
	o.marks[c].same = shift == 0
	for _, mk := range m.marks[c+1 : e] {
		o.marks = append(o.marks, copyMark{at: mk.at, out: mk.out + shift, str: d.str, same: shift == 0})
	}
	to := m.marks[e]
	dst = append(dst, m.data[from.out:to.out]...)
	n := int64(to.out - from.out)
	o.copied += n
	d.next = e * m.chunk
	return to.at, dst, limit - n
}

// keep is the old keep: it ends a decode of the body of generation own,
// compared against generation base: when the memo still holds that body,
// a successful decode's bytes and marks become the memo's, copied, and a
// failed decode drops the memo's. The bytes the decode copied from the
// memo's decode at their own offsets are not copied back when the memo
// still holds that decode. The marks buffer the memo does not keep
// becomes the spare.
func (m *copyingMemo) keep(own, base uint64, data []byte, marks []copyMark, ok bool) {
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
