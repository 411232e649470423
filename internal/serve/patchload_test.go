package serve

// The whole one-value path held to the cold one: bodies addressed and
// decoded against a spec's memo, their payloads — plain or patches of the
// anchors the lineage keeps — loaded on one lineage, and each decode made
// the memo's view of the anchors the load reports, against a memo-less
// decode, a full parse and a diff of the two full parses.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/ingest"
	"confvalley/internal/runner"
)

// patchDoc is a fuzzed request: KV lines, the ones whose value the body
// spells with \u escapes, and what follows the first payload: nothing
// (0), a second payload (1), or one the KV driver refuses (2).
type patchDoc struct {
	lines   []string
	escaped map[int]bool
	second  int
}

// render encodes the request: the first payload's data is the lines, with
// the escaped lines' values written one \u escape per byte.
func (d *patchDoc) render() []byte {
	b := []byte(`{"payloads":[{"name":"a.kv","format":"kv","data":"`)
	for i, ln := range d.lines {
		k, v, _ := strings.Cut(ln, " = ")
		b = append(b, k...)
		b = append(b, " = "...)
		for j := 0; j < len(v); j++ {
			if d.escaped[i] {
				b = fmt.Appendf(b, `\u%04x`, v[j])
			} else {
				b = append(b, v[j])
			}
		}
		b = append(b, `\n`...)
	}
	b = append(b, `"}`...)
	switch d.second {
	case 1:
		b = append(b, `,{"name":"b.kv","format":"kv","scope":"S","data":"x.y = 1\nx.z = 2\n"}`...)
	case 2:
		b = append(b, `,{"name":"b.kv","format":"kv","scope":"S","data":"x.y = 1\nnot a setting\n"}`...)
	}
	return append(b, `]}`...)
}

// lineAt returns the index of the line whose encoding the body byte at off
// is in, or the last line.
func (d *patchDoc) lineAt(body []byte, off int) int {
	off = min(off, len(body)-1)
	return min(bytes.Count(body[:off], []byte(`\n`)), len(d.lines)-1)
}

// FuzzPatchedLoad feeds one memo and one lineage a sequence of request
// bodies: each is addressed and decoded against the memo as ValidateBody
// does, its payloads are loaded on the lineage as the runner loads them
// (ingest.Load, a patch through its anchor), and the memo takes the
// decode as its view of the anchors the lineage keeps after the load, as
// the run reports them (finish). A degraded load — a second payload the
// driver refuses — keeps the first payload's parse and serves the
// second's stale. Every patch must be anchored on the very bytes the
// lineage keeps for its payload, whatever the loads before it did, so
// that its load re-parses the windows alone. Each clean load's store must
// hold what a full parse of the memo-less decode of the same body holds,
// and its diff against the previous clean load's store must be the diff
// of the two full parses. The memo cuts bodies into chunks of C =
// fuzzChunk bytes. Each op is two bytes, a kind and an argument, at a
// line picked by the argument (a chunk boundary c·C for arg < 96, else
// arg·C/64 bytes into the body):
//
//	0 a new nonce (same length)         5 spell the line's value with \u escapes, or not
//	1 a value of another length         6 insert a line: the walk declines, the load parses in full
//	2 a value of the same length        7 a second payload: none, a good one, a refused one, in turn
//	3 a 300-byte value, past a margin   8 cut the byte budget to arg·C/16 bytes (this body only)
//	4 delete the line
func FuzzPatchedLoad(f *testing.F) {
	const C = fuzzChunk
	f.Add(uint16(3*C/24), []byte{0, 1, 0, 2, 2, 40, 1, 7, 0, 3})
	f.Add(uint16(2*C/24), []byte{2, 1, 2, 130, 6, 50, 0, 0, 2, 200, 1, 1})
	f.Add(uint16(3*C/24), []byte{5, 2, 0, 9, 5, 2, 2, 2, 3, 60, 3, 60, 2, 60})
	f.Add(uint16(2*C/24), []byte{7, 0, 0, 1, 2, 150, 7, 0, 4, 100, 0, 2})
	f.Add(uint16(2*C/24), []byte{8, 10, 0, 1, 8, 200, 2, 1, 0, 9})
	// A structural edit in the last chunk while the anchor serves the
	// rest: the patch materialises, parses in full and becomes the anchor.
	f.Add(uint16(6*C/17), []byte{0, 1, 6, 255, 0, 1, 0, 2, 3, 250, 0, 3})
	// The same edit in a degraded load: the lineage parses the first
	// payload in full, and the run reports its bytes as the new anchor.
	f.Add(uint16(6*C/17), []byte{7, 0, 0, 1, 7, 0, 6, 255, 7, 0, 7, 0, 0, 2, 0, 3})
	f.Fuzz(func(t *testing.T, lines uint16, ops []byte) {
		if len(ops) > 24 {
			ops = ops[:24]
		}
		n := min(int(lines), 6*C/17) + 8
		doc := patchDoc{escaped: make(map[int]bool)}
		doc.lines = append(doc.lines, "bench.nonce = 0000000000")
		for i := 1; i < n; i++ {
			doc.lines = append(doc.lines, fmt.Sprintf("k%05d.v = val%d", i, i%97))
		}
		r := patchRun{m: addressMemo{chunk: C}}
		r.step(t, "first", doc.render(), math.MaxInt64)
		nonce := 0
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%9, int(ops[i+1])
			body := doc.render()
			at := arg * C / 64
			if arg < 96 {
				at = (1+arg%3)*C - 8 + arg/8
			}
			ln := doc.lineAt(body, at)
			key, _, _ := strings.Cut(doc.lines[ln], " = ")
			budget := int64(math.MaxInt64)
			switch kind {
			case 0:
				nonce++
				doc.lines[0] = fmt.Sprintf("bench.nonce = %010d", nonce)
			case 1:
				doc.lines[ln] = key + " = " + strings.Repeat("v", 1+arg%13)
			case 2:
				_, v, _ := strings.Cut(doc.lines[ln], " = ")
				doc.lines[ln] = key + " = " + strings.Map(func(r rune) rune { return 'a' + (r-'a'+1)%26 }, strings.ToLower(v))
			case 3:
				doc.lines[ln] = key + " = " + strings.Repeat(strconv.Itoa(arg%10), 300)
			case 4:
				if len(doc.lines) > 2 {
					doc.lines = slices.Delete(doc.lines, ln, ln+1)
				}
			case 5:
				doc.escaped[ln] = !doc.escaped[ln]
			case 6:
				doc.lines = slices.Insert(doc.lines, ln, fmt.Sprintf("ins%d.k = v", i))
			case 7:
				doc.second = (doc.second + 1) % 3
			case 8:
				budget = int64(arg * C / 16)
			}
			r.step(t, fmt.Sprintf("op %d (kind %d, arg %d)", i/2, kind, arg), doc.render(), budget)
		}
	})
}

// A patchRun is one spec's memo and lineage, which FuzzPatchedLoad and
// the tests after it feed bodies to; prev and prevRef are the last clean
// load's store and its full parses'. loose lets a patch be anchored on
// bytes the lineage does not keep, which only finishes out of order bring
// about.
type patchRun struct {
	m             addressMemo
	parses        ingest.Parses
	prev, prevRef *config.Snapshot
	loose         bool
}

// step addresses and decodes body against the memo as ValidateBody does,
// loads its payloads on the lineage as the runner loads them, makes the
// decode the memo's view of the anchors the lineage keeps after the load
// (finish), and holds all of it to the cold path. It returns the decoded
// payloads.
func (r *patchRun) step(t *testing.T, label string, body []byte, budget int64) []runner.Payload {
	t.Helper()
	ctx := context.Background()
	var equal [stackChunks]bool
	a := r.m.addressOf(body, equal[:])
	dec, err := r.m.decode(&a, body, math.MaxInt, budget)
	want, _, _, wantErr := decodeEnvelope(body, math.MaxInt, budget)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: decoded with the memo to error %v, without to %v", label, err, wantErr)
	}
	if err != nil {
		r.m.finish(&dec, nil)
		return nil
	}
	var sources []ingest.Source
	for _, p := range dec.payloads {
		data := p.Data
		src := ingest.Source{Name: p.Name, Format: p.Format, Scope: p.Scope, Patch: p.Patch,
			Fetch: func(context.Context) ([]byte, error) { return data, nil }}
		if p.Patch != nil && !r.loose && !sameBytes(p.Patch.Anchor, r.parses.Anchor(src)) {
			t.Fatalf("%s: a patch of %s is anchored on %d bytes the lineage does not keep", label, p.Name, len(p.Patch.Anchor))
		}
		sources = append(sources, src)
	}
	st := config.NewStore()
	rep, next := ingest.Load(ctx, st, sources, r.parses, 0)
	ok := !rep.Degraded()
	anchors := make([][]byte, len(sources))
	for i, src := range sources {
		anchors[i] = next.Anchor(src)
	}
	r.m.finish(&dec, anchors)
	r.parses = next // as the server keeps a degraded run's state

	ref := config.NewStore()
	refOK := true
	for _, w := range want {
		part, _, err := driver.ParsePartition(ctx, w.Format, bytes.Clone(w.Data), w.Name, w.Scope, nil)
		if err != nil {
			refOK = false
			break
		}
		ref.AddAll(part.Instances())
	}
	if refOK != ok {
		t.Fatalf("%s: the load degraded = %v, the full parse failed = %v (%+v)", label, !ok, !refOK, rep.Outcomes)
	}
	if !ok {
		return dec.payloads
	}
	snap, refSnap := st.Snapshot(), ref.Snapshot()
	if !reflect.DeepEqual(snap.Instances(), refSnap.Instances()) {
		t.Fatalf("%s: the load's store differs from the full parse's (%d instances, want %d)", label, snap.Len(), refSnap.Len())
	}
	if r.prev != nil {
		gd, wd := snap.Diff(r.prev), refSnap.Diff(r.prevRef)
		ga, gr, gm := gd.Keys()
		wa, wr, wm := wd.Keys()
		if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gm, wm) {
			t.Fatalf("%s: diff +%v -%v ~%v, the full parses' +%v -%v ~%v", label, ga, gr, gm, wa, wr, wm)
		}
	}
	r.prev, r.prevRef = snap, refSnap
	return dec.payloads
}

// The memo's patches come back to the bytes the lineage keeps within one
// request, whatever moved the lineage: a degraded run that parsed one
// payload in full and served the other stale, and two runs of different
// bodies whose loads reach the lineage in the reverse order of their
// addressing, so that the memo's view is of anchors the lineage dropped.
// Each run reports the anchors its lineage keeps and the memo's view is
// built on them, so the request after the move is anchored on them
// again, and its load re-parses the windows alone.
func TestPatchesFollowTheLineage(t *testing.T) {
	doc := patchDoc{escaped: map[int]bool{}, second: 1}
	doc.lines = append(doc.lines, "bench.nonce = 0000000000")
	for i := 1; i < 3*addressChunk/17; i++ {
		doc.lines = append(doc.lines, fmt.Sprintf("k%05d.v = val%d", i, i%97))
	}
	stamp := func(n int) { doc.lines[0] = fmt.Sprintf("bench.nonce = %010d", n) }
	var r patchRun
	r.step(t, "first", doc.render(), math.MaxInt64)
	doc.lines = slices.Insert(doc.lines, len(doc.lines)-5, "ins.k = v")
	doc.second = 2
	r.step(t, "a structural edit beside a refused payload", doc.render(), math.MaxInt64)
	for n := 1; n <= 2; n++ {
		stamp(n)
		if ps := r.step(t, fmt.Sprintf("nonce %d after the degraded run", n), doc.render(), math.MaxInt64); len(ps) != 2 || ps[0].Patch == nil {
			t.Fatalf("nonce %d after the degraded run: the first payload is not a patch", n)
		}
	}

	// Two structural edits, addressed and decoded one after the other;
	// the second's load reaches the lineage first, the first's last.
	ctx := context.Background()
	load := func(dec *decoded) (ingest.Parses, [][]byte) {
		var sources []ingest.Source
		for _, p := range dec.payloads {
			data := p.Data
			sources = append(sources, ingest.Source{Name: p.Name, Format: p.Format, Scope: p.Scope, Patch: p.Patch,
				Fetch: func(context.Context) ([]byte, error) { return data, nil }})
		}
		_, next := ingest.Load(ctx, config.NewStore(), sources, r.parses, 0)
		anchors := make([][]byte, len(sources))
		for i, src := range sources {
			anchors[i] = next.Anchor(src)
		}
		return next, anchors
	}
	var decs [2]decoded
	for k := range decs {
		doc.lines = slices.Insert(doc.lines, 5+k, fmt.Sprintf("moved%d.k = v", k))
		body := doc.render()
		var equal [stackChunks]bool
		a := r.m.addressOf(body, equal[:])
		var err error
		if decs[k], err = r.m.decode(&a, body, math.MaxInt, math.MaxInt64); err != nil {
			t.Fatal(err)
		}
	}
	_, second := load(&decs[1])
	first, firstAnchors := load(&decs[0])
	r.m.finish(&decs[1], second)
	r.m.finish(&decs[0], firstAnchors)
	r.parses, r.prev, r.loose = first, nil, true
	if sameBytes(r.m.last.strs[0].anchor, r.parses.Anchor(ingest.Source{Name: "a.kv", Format: "kv"})) {
		t.Fatal("the memo's view is of the anchor the lineage keeps: the loads did not cross")
	}
	stamp(3)
	r.step(t, "nonce 3 after the reversed loads", doc.render(), math.MaxInt64)
	r.loose = false
	stamp(4)
	if ps := r.step(t, "nonce 4 after the reversed loads", doc.render(), math.MaxInt64); len(ps) != 2 || ps[0].Patch == nil {
		t.Fatal("nonce 4 after the reversed loads: the first payload is not a patch")
	}
}
