package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"confvalley/internal/azuregen"
	"confvalley/internal/config"
	"confvalley/internal/runner"
)

// decodeEnvelope is the decode with no address memo, envelopeDecoder.decode
// under the given quotas: the oracle the memo's decode (addressMemo.decode,
// the one ValidateBody runs) is held to by FuzzDecodeReuse and
// FuzzPatchedLoad, and itself held to json.Unmarshal by
// FuzzValidateEnvelope.
func decodeEnvelope(body []byte, maxSources int, maxPayloadBytes int64) (payloads []runner.Payload, sources []SourceRef, buf *[]byte, err error) {
	d := envelopeDecoder{b: body, maxSources: maxSources, budget: max(maxPayloadBytes, 0)}
	return d.decode()
}

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A request over a quota is refused where it goes over, not after it has
// been decoded: a 6 MB body of two million empty payloads used to cost
// 731 MB before the 64-source quota refused it.
func TestEnvelopeQuotaBoundsAllocation(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{Quotas: Quotas{MaxPayloadBytes: 4096}})
	if _, err := srv.RegisterSpec("acme", "checks", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	refused := func(label string, body []byte, class error) {
		t.Helper()
		denied := srv.Stats().QuotaDenied
		var err error
		n := allocatedBy(func() { _, err = srv.ValidateBody(ctx, "acme", "checks", body) })
		if !errors.Is(err, class) {
			t.Errorf("%s: %v, want %v", label, err, class)
		}
		if n > 2*uint64(len(body))+64<<10 { // the 64 KB: slots for a quota's worth of sources
			t.Errorf("%s: allocated %d bytes refusing a %d-byte body", label, n, len(body))
		}
		if got := srv.Stats().QuotaDenied - denied; got != 1 {
			t.Errorf("%s: counted %d denials, want 1", label, got)
		}
	}
	accepted := func(label string, body []byte) {
		t.Helper()
		if _, err := srv.ValidateBody(ctx, "acme", "checks", body); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	sources := DefaultQuotas().MaxSources
	empties := func(n int) string { return strings.TrimSuffix(strings.Repeat("{},", n), ",") }

	refused("two million payloads", []byte(`{"payloads":[`+empties(6<<20/3)+`]}`), ErrQuota)
	refused("one source too many", []byte(`{"payloads":[`+empties(sources)+`],"sources":[null]}`), ErrQuota)
	refused("one repeated payload too many", []byte(`{"sources":[`+empties(sources-1)+`],"payloads":[{}],"payloads":[{},{}]}`), ErrQuota)
	accepted("sources at the quota", []byte(`{"payloads":[`+empties(sources-1)+`],"sources":[{"name":"/nonexistent","format":"kv"}]}`))

	kv := func(n int) string { return strings.Repeat("k = 1\n", n/6+1)[:n] }
	data := func(parts ...string) []byte {
		req := ValidateRequest{}
		for _, p := range parts {
			req.Payloads = append(req.Payloads, PayloadRef{Format: "kv", Data: p})
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	accepted("payload bytes at the quota", data(kv(4000), kv(96)))
	refused("one payload byte too many", data(kv(4000), kv(97)), ErrTooLarge)
	refused("a 6 MB payload", data(kv(6<<20)), ErrTooLarge)
	// Each malformed byte decodes to the three of U+FFFD.
	bad := func(n int) []byte {
		return []byte(`{"payloads":[{"format":"kv","data":"` + strings.Repeat("\xff", n) + `"}]}`)
	}
	accepted("replacement characters at the quota", bad(4095/3))
	refused("replacement characters over the quota", bad(4096/3+1), ErrTooLarge)
	refused("2 MB of replacement characters", bad(2<<20), ErrTooLarge)
}

// ValidateBody only reads the body it is handed — the benchmark passes its
// own template buffer — and nothing decoded from it points back into it.
func TestValidateBodyLeavesBodyIntact(t *testing.T) {
	const doc = "app.timeout = 30\napp.note = café \"quoted\" \\ \t tab\n"
	body, err := json.Marshal(ValidateRequest{
		Payloads: []PayloadRef{{Name: "app.kv", Format: "kv", Scope: "", Data: doc}, {Name: "bé.kv", Format: "kv", Data: "b = 1\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(body)

	payloads, _, _, err := decodeEnvelope(body, math.MaxInt, math.MaxInt64)
	if err != nil || len(payloads) != 2 {
		t.Fatalf("decoded %d payloads, err %v", len(payloads), err)
	}
	ctx := context.Background()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "checks", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	first, err := srv.ValidateBody(ctx, "acme", "checks", body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, orig) {
		t.Fatal("decoding changed the body")
	}

	for i := range body {
		body[i] = 'X'
	}
	if p := payloads[0]; p.Name != "app.kv" || p.Format != "kv" || string(p.Data) != doc || payloads[1].Name != "bé.kv" {
		t.Errorf("decoded payloads changed with the body: %+v", payloads)
	}
	// The same request again is answered from what the first one left in
	// the caches, which must not have changed either.
	again, err := srv.ValidateBody(ctx, "acme", "checks", orig)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Report, again.Report) || !reflect.DeepEqual(first.Load, again.Load) {
		t.Errorf("the repeated request is answered differently:\n first: %+v\n again: %+v", first.Report, again.Report)
	}
}

// Payloads are decoded into one buffer, each clipped to its own bytes.
func TestEnvelopePayloadsDoNotShareCapacity(t *testing.T) {
	payloads, _, _, err := decodeEnvelope([]byte(`{"payloads":[{"data":"first"},{"data":""},{"data":"second é"},{"data":"third"}]}`), math.MaxInt, math.MaxInt64)
	if err != nil || len(payloads) != 4 {
		t.Fatalf("decoded %d payloads, err %v", len(payloads), err)
	}
	for i := range payloads {
		if d := payloads[i].Data; cap(d) != len(d) {
			t.Errorf("payload %d: %d bytes with capacity %d", i, len(d), cap(d))
		}
		_ = append(payloads[i].Data, "overrun"...)
	}
	for i, want := range []string{"first", "", "second é", "third"} {
		if got := string(payloads[i].Data); got != want {
			t.Errorf("payload %d reads %q after appends to its neighbours, want %q", i, got, want)
		}
	}
}

// BenchmarkDecodeEnvelope is the envelope's share of the repository
// benchmark's novel_xml request, and nothing else: decodeEnvelope over
// that body — a full Type A corpus as nested XML, with the nonce setting
// the root package's coldRequest stamps — under the default quotas, into
// the pooled payload buffer a one-value request decodes into. The buffer
// goes back unpoisoned, so what is timed is the decode.
func BenchmarkDecodeEnvelope(b *testing.B) {
	st := config.NewStore()
	st.Add(&config.Instance{Key: config.K("BenchRun", "Nonce"), Value: "0000000000"})
	st.AddAll(azuregen.GenerateA(1.0, 2015).Store.Instances())
	body, err := json.Marshal(ValidateRequest{Payloads: []PayloadRef{
		{Name: "corpus.xml", Format: "xml", Data: string(azuregen.RenderXML(st))},
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer func(poison bool) { poisonReleasedBodies = poison }(poisonReleasedBodies)
	poisonReleasedBodies = false
	q := DefaultQuotas()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, buf, err := decodeEnvelope(body, q.MaxSources, q.MaxPayloadBytes)
		if err != nil {
			b.Fatal(err)
		}
		releasePayloads(buf)
	}
}
