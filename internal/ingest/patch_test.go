package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/driver"
)

// patchOf returns doc as a patch of anchor, which is as long: one window
// per differing 64-byte block.
func patchOf(anchor, doc []byte) *Patch {
	p := &Patch{Anchor: anchor}
	for lo := 0; lo < len(doc); lo += 64 {
		hi := min(lo+64, len(doc))
		if !bytes.Equal(anchor[lo:hi], doc[lo:hi]) {
			p.Windows = append(p.Windows, driver.Window{Lo: lo, Hi: hi, Data: bytes.Clone(doc[lo:hi])})
		}
	}
	return p
}

// valueDoc is a KV document whose values are set by vals.
func valueDoc(vals []int) []byte {
	var b bytes.Buffer
	for i, v := range vals {
		fmt.Fprintf(&b, "app.k%03d = %04d\n", i, v)
	}
	return b.Bytes()
}

// A patch loads as the bytes it stands for, whatever it is anchored on.
// Over random value edits, a lineage loading each document as a patch of
// the bytes its last full parse kept holds what a lineage loading the same
// documents whole holds — the windows re-parsed alone — with the same
// outcomes. A patch anchored on equal bytes that are not the ones the
// lineage parsed, or on other bytes, is materialised and loads as its
// bytes too: the windows are re-parsed only against the very bytes they
// were cut from, and only a patch anchored elsewhere is materialised.
// Each load is held, step by step, to the contiguous path the windowed
// one replaced (contiguousFetchAndParse) from the same base.
func TestPatchLoadsAsItsBytes(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(49))
	vals := make([]int, 300)
	for i := range vals {
		vals[i] = rng.Intn(10000)
	}
	patched, whole := newLineage(0), newLineage(0)
	key := goodKey{name: "app.kv", format: "kv"}
	load := func(l *lineage, src Source) (*config.Snapshot, Outcome) {
		st := config.NewStore()
		rep := l.Load(ctx, st, []Source{src})
		if len(rep.Outcomes) != 1 || rep.Outcomes[0].Err != "" {
			t.Fatalf("load: %+v", rep.Outcomes)
		}
		return st.Snapshot(), rep.Outcomes[0]
	}
	check := func(label string, anchor, doc []byte) {
		t.Helper()
		// The patch's load, step by step against the contiguous path's.
		base := patched.held()[key].base
		p, pdoc, err := fetchAndParse(ctx, Source{Name: "app.kv", Format: "kv", Patch: patchOf(anchor, doc)}, "kv", base)
		q, qdoc, qerr := contiguousFetchAndParse(ctx, Source{Name: "app.kv", Format: "kv", Patch: patchOf(anchor, doc)}, "kv", base)
		if err != nil || qerr != nil || !reflect.DeepEqual(p.part.Instances(), q.part.Instances()) || p.parsed != q.parsed || (pdoc == base) != (qdoc == base) {
			t.Fatalf("%s: the patch's load (err %v, re-parsed %v) differs from the contiguous path's (err %v, re-parsed %v)", label, err, pdoc == base, qerr, qdoc == base)
		}
		src := Source{Name: "app.kv", Format: "kv", Patch: patchOf(anchor, doc)}
		got, gotOut := load(patched, src)
		if windowed := sameBytes(anchor, base.data); src.Patch.built == windowed {
			t.Fatalf("%s: anchored on the lineage's bytes %v, materialised %v", label, windowed, src.Patch.built)
		}
		want, wantOut := load(whole, memSource("app.kv", "kv", bytes.Clone(doc)))
		if !reflect.DeepEqual(got.Instances(), want.Instances()) {
			t.Fatalf("%s: the patch loaded other instances than its bytes", label)
		}
		if gotOut != wantOut {
			t.Fatalf("%s: outcome %+v, loading the bytes whole %+v", label, gotOut, wantOut)
		}
	}
	first := valueDoc(vals)
	load(patched, memSource("app.kv", "kv", first))
	load(whole, memSource("app.kv", "kv", bytes.Clone(first)))
	for round := 0; round < 40; round++ {
		for k := 0; k <= rng.Intn(4); k++ {
			vals[rng.Intn(len(vals))] = rng.Intn(10000)
		}
		kept := patched.held()[key].base.data
		check(fmt.Sprintf("round %d", round), kept, valueDoc(vals))
	}
	kept := patched.held()[key].base.data
	check("anchored on an equal copy", bytes.Clone(kept), bytes.Clone(kept))
	// Bytes that differ from the lineage's outside the patch's one window:
	// only materialising them reads k100's value.
	other := bytes.Clone(kept)
	setValue(other, 100, "x100")
	doc := bytes.Clone(other)
	setValue(doc, 200, "x200")
	check("anchored on other bytes", other, doc)
}

// setValue overwrites the four-byte value of line i of a valueDoc.
func setValue(doc []byte, i int, v string) {
	at := bytes.Index(doc, fmt.Appendf(nil, "app.k%03d = ", i))
	copy(doc[at+len("app.k000 = "):], v)
}

// contiguousFetchAndParse is fetchAndParse before patches were re-parsed
// window by window, kept as the oracle for that path: a patch's bytes are
// materialised, then re-parsed against base by the contiguous walk or, when
// it declines, parsed in full.
func contiguousFetchAndParse(ctx context.Context, src Source, format string, base *document) (p parse, doc *document, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, doc, err = parse{}, nil, fmt.Errorf("driver %s: panic parsing %s: %v", format, src.Name, r)
		}
	}()
	var data []byte
	switch {
	case src.Patch != nil:
		data = src.Patch.Bytes()
	case src.Fetch != nil:
		data, err = src.Fetch(ctx)
	default:
		data, err = os.ReadFile(src.Name)
	}
	if err != nil {
		return parse{}, nil, fmt.Errorf("reading %s: %w", src.Name, err)
	}
	d, _ := driver.Lookup(format)
	r, reparses := d.(driver.Reparser)
	if base != nil && reparses {
		if changes, ok := r.Reparse(base.data, base.ins, data); ok {
			return base.revalue(changes), base, nil
		}
	}
	part, parsed, err := driver.ParsePartition(ctx, format, data, src.Name, src.Scope, src.Projection)
	if err != nil {
		return parse{}, nil, err
	}
	p = parse{part: part, parsed: parsed, projected: src.Projection != nil && driver.Projects(format)}
	if !reparses {
		return p, nil, nil
	}
	ins := part.Instances()
	return p, &document{data: data, ins: ins, ordered: driver.InOrder(data, ins), parse: p}, nil
}
