package serve

// The lifetime of a pooled payload buffer. A request's payloads are
// decoded into one buffer, which goes back to the pool once the request's
// run is over, and the next request decodes into it: a plain payload
// reaches the run as a copy of its own, which a full parse keeps, and a
// re-parse keeps nothing. TestMain poisons what is released, so any
// reference that survived into a cached response, a lineage's report or
// a retained snapshot reads 0xFF here.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"confvalley"
)

// poolSpec quotes a payload value in each violation: timeout and retries
// out of range, and the host's value through its length.
const poolSpec = `$app.timeout -> int & [1, 60]
$app.retries -> int & [0, 5]
$db.host -> nonempty
`

// poolDoc is a payload whose timeout and host change from request to
// request; extra adds lines, a structural edit the delta walk declines.
func poolDoc(timeout int, host string, extra string) string {
	return fmt.Sprintf("app.timeout = %d\napp.retries = 9\n%sdb.host = %s\napp.note = unread\n", timeout, extra, host)
}

// interpretRun is the lifetime tests' oracle: a cold run by the reference
// interpreter, which never re-parses and never splices, its wire report
// modulo the fields the caching layers may change.
func interpretRun(t *testing.T, data string) []byte {
	t.Helper()
	return coldReference(t, poolSpec, []byte(data))
}

// pooledBuffer returns the address of the first byte of the buffer the
// pool would hand out next, putting it back, or nil when it holds none.
func pooledBuffer() *byte {
	buf, _ := payloadPool.Get().(*[]byte)
	if buf == nil || cap(*buf) == 0 {
		return nil
	}
	defer payloadPool.Put(buf)
	return &(*buf)[:1][0]
}

// poolServer registers poolSpec and returns a function that validates one
// payload through ValidateBody, checks the response against the oracle
// and returns it.
func poolServer(t *testing.T) (*Server, func(data string) *ValidateResponse) {
	t.Helper()
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "pool", poolSpec); err != nil {
		t.Fatal(err)
	}
	return srv, func(data string) *ValidateResponse {
		t.Helper()
		resp, err := srv.ValidateBody(context.Background(), "acme", "pool", requestBody(t, kvRequest(data)))
		if err != nil {
			t.Fatal(err)
		}
		checkResponse(t, "fresh", data, resp)
		return resp
	}
}

func checkResponse(t *testing.T, label, data string, resp *ValidateResponse) {
	t.Helper()
	if got, want := wireModuloCaching(t, resp.Report), interpretRun(t, data); !bytes.Equal(got, want) {
		t.Errorf("%s response to %q diverged from a cold interpreter run:\n got: %s\nwant: %s", label, data, got, want)
	}
}

// Request A is answered by a taken walk and releases its buffer; B…E, each
// one different value, decode into it in turn and release it again. A's
// cached response, a cache hit on A's bytes, and a report spliced from
// the lineage those walks left stay what a cold interpreter run says.
func TestPayloadBufferReusedAfterTakenWalk(t *testing.T) {
	// sync.Pool keeps what is put into it per processor, and a Get on
	// another one does not find it: with one, the next request's decode,
	// and pooledBuffer, take what the last request released. Under the
	// race detector the pool drops a quarter of it on purpose, so reuse is
	// only checked without.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, validate := poolServer(t)
	validate(poolDoc(400, "db-0", "")) // the full parse the walks re-parse against
	docA := poolDoc(401, "db-1", "")
	respA := validate(docA)
	bufA := pooledBuffer()
	if bufA == nil && !raceEnabled {
		t.Fatal("request A's buffer was not released after a taken walk")
	}
	reused := 0
	var last string
	for i, timeout := range []int{402, 403, 404, 405} {
		last = poolDoc(timeout, fmt.Sprintf("db-%d", i+2), "")
		validate(last)
		if buf := pooledBuffer(); buf != nil && buf == bufA {
			reused++
		}
	}
	if reused == 0 && !raceEnabled {
		t.Error("no later request decoded into request A's released buffer")
	}
	if st := srv.Stats(); st.SourcesParsed != 1 || st.SourcesReparsed != 5 {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 1 and 5", st.SourcesParsed, st.SourcesReparsed)
	}

	checkResponse(t, "request A's cached", docA, respA)
	hits := srv.Stats().ResultCacheHits
	again, err := srv.ValidateBody(context.Background(), "acme", "pool", requestBody(t, kvRequest(docA)))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Stats().ResultCacheHits != hits+1 {
		t.Error("request A's bytes again were not a result-cache hit")
	}
	checkResponse(t, "a cache hit on request A's", docA, again)

	// A change no spec reads: every verdict is spliced from E's report.
	spliced := validate(strings.Replace(last, "note = unread", "note = read", 1))
	if spliced.Report.SpecsReused != 3 {
		t.Errorf("the last request reused %d of 3 specs, want every verdict spliced", spliced.Report.SpecsReused)
	}
}

// Request S adds a line, so the walk declines and S is parsed in full: S's
// bytes are the lineage's base now — the copy the decode handed the run,
// while its buffer went back to the pool — and the snapshot of every later
// re-parse borrows its unchanged values from it. Ten taken walks release
// and reuse their own buffers around it; S's values, as S's cached
// response reads them, survive all ten, and so do the latest snapshot's:
// a change no spec reads then finds every value the spec reads unchanged
// and splices every verdict.
func TestPayloadBufferKeptAfterDeclinedWalk(t *testing.T) {
	srv, validate := poolServer(t)
	validate(poolDoc(400, "db-0", ""))
	const extra = "app.extra = kept-from-S\n"
	docS := poolDoc(401, "db-s", extra)
	respS := validate(docS)
	var last string
	for i := 0; i < 10; i++ {
		last = poolDoc(500+i, fmt.Sprintf("db-%d", i), extra)
		validate(last)
	}
	if st := srv.Stats(); st.SourcesParsed != 2 || st.SourcesReparsed != 10 {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 2 and 10", st.SourcesParsed, st.SourcesReparsed)
	}
	checkResponse(t, "request S's cached", docS, respS)

	// The load is projected: the store holds the 3 instances the spec
	// reads, and the diff against the latest snapshot finds all 3 as the
	// payload says.
	spliced := validate(strings.Replace(last, "note = unread", "note = read", 1))
	if spliced.Report.SpecsReused != 3 {
		t.Errorf("a change no spec reads reused %d of 3 specs: the latest snapshot does not read as its payload", spliced.Report.SpecsReused)
	}
	if o := spliced.Load.Outcomes; len(o) != 1 || o[0].Projected == nil || *o[0].Projected != 3 {
		t.Errorf("load outcomes %+v, want one payload with the 3 instances the spec reads", o)
	}
}

// A full parse keeps a buffer the size of its document. The decode buffer
// is reserved at the body's length, and an XML document in a JSON string
// carries an escape for every angle bracket, so a parse that kept the
// decode buffer kept what the escapes took besides. The bytes the lineage
// keeps, as the run reports them (runner.Result.Anchors, the memo's
// view's anchor), are the document's, and all the spec holds — measured
// as the heap its deletion frees — is, beyond the memo's copy of the
// body, the document and at most an eighth more: its few instances, the
// report and the rounding of pages, which read 2–7 % under the race
// detector. The decode buffer kept would be 3.5 times the document.
func TestFullParseKeepsDocumentSizedBuffer(t *testing.T) {
	srv := New(Config{})
	if _, err := srv.RegisterSpec("acme", "xml", "$App.Frontend.timeout -> int & [1, 60]\n"); err != nil {
		t.Fatal(err)
	}
	// What a Setting encloses is checked and not kept: a 1 MB document of
	// few instances, whose every byte is an element's, in a 3.5 MB body.
	doc := `<Configuration><App><Frontend Name="f"><Setting Key="timeout" Value="30">` +
		strings.Repeat("<x/>", 1<<18) + `</Setting></Frontend></App></Configuration>`
	body := requestBody(t, ValidateRequest{Payloads: []PayloadRef{{Name: "app.xml", Format: "xml", Data: doc}}})
	if len(body) < 3*len(doc) {
		t.Fatalf("a %d-byte document encoded in %d bytes: too few escapes for the test", len(doc), len(body))
	}
	if _, err := srv.ValidateBody(context.Background(), "acme", "xml", body); err != nil {
		t.Fatal(err)
	}
	entry, err := acmeTenant(t, srv).spec("xml")
	if err != nil {
		t.Fatal(err)
	}
	v := entry.addr.last
	if v == nil || len(v.strs) != 1 || string(v.strs[0].anchor) != doc {
		t.Fatal("the full parse did not report the document as its anchor")
	}
	if !sameBytes(v.strs[0].anchor, entry.state.Load().Anchor(confvalley.Source{Name: "app.xml", Format: "xml"})) {
		t.Fatal("the memo's anchor is not the bytes the lineage keeps")
	}
	v, entry = nil, nil
	held := func() int {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int(ms.HeapInuse)
	}
	with := held()
	if err := srv.DeleteSpec("acme", "xml"); err != nil {
		t.Fatal(err)
	}
	if kept := with - held() - len(body); kept > len(doc)+len(doc)/8 {
		t.Errorf("besides the memo's copy of its %d-byte body, the spec held %d bytes for a %d-byte document", len(body), kept, len(doc))
	}
	runtime.KeepAlive(srv)
	runtime.KeepAlive(body)
}
