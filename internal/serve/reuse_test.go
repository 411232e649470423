package serve

// The decode memo (address.go: decode, markAt) held to the memo-less
// decoder it stands in for, alone over edited bodies and through the
// service under concurrency.

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

// FuzzDecodeReuse feeds one memo a sequence of request bodies derived
// from the input, each addressed and decoded against the memo as
// ValidateBody does, and holds every decode to a memo-less decodeEnvelope
// of the same bytes under the same byte budget: the same payloads, each
// clipped to its bytes, and sources, or the same error text, offset
// included. A payload handed out earlier must not change when the memo
// takes a later decode. Each op is two bytes, a kind and an argument, and
// edits the units at a position, persistently unless it says otherwise:
//
//	0 flip one byte (this body only)    6 insert `"},{"data":"`: a string ends and one begins
//	1 change a unit, same length        7 grow: insert a chunk's worth of units
//	2 change a unit, other length       8 delete a chunk's worth of units, or (arg odd)
//	3 insert 1–3 units                    cut the body short (this body only)
//	4 delete 1–3 units                  9 add a second payload after the first, or drop it
//	5 make the unit an escape that     10 cut the byte budget to arg%4 chunks + arg·61 bytes,
//	  ends arg%12 bytes past a boundary     or lift it (arg 255)
//	11 make the unit a lone backslash, shifting how the backslashes after it pair
//
// A position is a chunk boundary c·64 KB − 16 … +15 (arg < 128, c =
// 1 + arg%3), or arg·997 into the body.
func FuzzDecodeReuse(f *testing.F) {
	const C = addressChunk
	f.Add(uint32(C), []byte{0, 1, 1, 2, 1, 130, 2, 5, 3, 9, 0, 200, 4, 0, 1, 3})
	f.Add(uint32(100|1<<17), []byte{5, 0, 5, 5, 5, 11, 5, 130, 1, 4, 11, 8, 1, 0, 11, 0})
	f.Add(uint32(7|2<<17), []byte{10, 1, 1, 40, 10, 2, 1, 130, 10, 255, 1, 3, 10, 65, 1, 66})
	f.Add(uint32(5000|3<<17), []byte{7, 3, 1, 12, 8, 0, 8, 201, 9, 7, 1, 66, 8, 1, 1, 1, 9, 0, 1, 9})
	f.Add(uint32(C/2|4<<17), []byte{6, 20, 1, 80, 6, 140, 2, 44, 4, 45, 1, 44})
	f.Add(uint32(C+17|5<<17), []byte{11, 12, 1, 12, 11, 13, 1, 12, 5, 6, 1, 1})
	f.Add(uint32(31|6<<17), []byte{9, 3, 1, 30, 10, 2, 1, 30, 10, 0, 1, 31})
	f.Add(uint32(3|7<<17), []byte{5, 1, 1, 64, 5, 2, 1, 100, 5, 3, 1, 65, 5, 9, 1, 70})

	f.Fuzz(func(t *testing.T, size uint32, ops []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		doc := reuseDoc{units: unitsOf(2*C+int(size%(3*C/2)), int(size>>17)%64), tail: `"}]}`}
		budget := int64(math.MaxInt64)
		var m addressMemo
		var lent [][]byte    // the payloads' bytes last handed out
		var lentWas []string // what they were then
		check := func(label string, body []byte) {
			t.Helper()
			var equal [stackChunks]bool
			a := m.addressOf(body, equal[:])
			got, gotSrc, _, _, gotErr := m.decode(&a, body, math.MaxInt, budget)
			want, wantSrc, _, wantErr := decodeEnvelope(body, math.MaxInt, budget)
			for i, p := range lent {
				if string(p) != lentWas[i] {
					t.Fatalf("%s: payload %d of the previous decode changed under a later one", label, i)
				}
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: %d-byte body, budget %d: decoded with the memo to error %v, without to %v", label, len(body), budget, gotErr, wantErr)
			}
			if (got == nil) != (want == nil) || len(got) != len(want) || !reflect.DeepEqual(gotSrc, wantSrc) {
				t.Fatalf("%s: shapes differ: %d payloads %v, want %d %v", label, len(got), gotSrc, len(want), wantSrc)
			}
			lent, lentWas = lent[:0], lentWas[:0]
			for i, w := range want {
				g := got[i]
				if g.Name != w.Name || g.Format != w.Format || g.Scope != w.Scope || !bytes.Equal(g.Data, w.Data) {
					at := 0
					for at < min(len(g.Data), len(w.Data)) && g.Data[at] == w.Data[at] {
						at++
					}
					t.Fatalf("%s: payload %d differs (%d bytes, want %d; first difference at %d)", label, i, len(g.Data), len(w.Data), at)
				}
				if cap(g.Data) != len(g.Data) {
					t.Fatalf("%s: payload %d: %d bytes with capacity %d", label, i, len(g.Data), cap(g.Data))
				}
				lent, lentWas = append(lent, g.Data), append(lentWas, string(g.Data))
			}
		}
		check("first", doc.render())
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%12, int(ops[i+1])
			at := arg * 997
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
					doc.tail = `"},{"scope":"s","data":"` + strings.Repeat(`a\"b`, arg*50) + `"}]}`
				} else {
					doc.tail = `"}]}`
				}
			case kind == 10:
				budget = int64(arg%4*C + arg*61)
				if arg == 255 {
					budget = math.MaxInt64
				}
			case kind == 11 && in:
				doc.units[u] = "\\"
			}
			if body == nil {
				body = doc.render()
			}
			check(fmt.Sprintf("op %d (kind %d, arg %d)", i/2, kind, arg), body)
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
