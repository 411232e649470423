package serve

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/refeval"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// referenceReport answers spec over one KV payload named app.kv with the
// reference interpreter: a fresh store holding the whole document, with
// no projection, cache or splice.
func referenceReport(t *testing.T, spec string, data []byte) *report.Report {
	t.Helper()
	st := config.NewStore()
	if _, err := driver.LoadInto(st, "kv", data, "app.kv", ""); err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return refeval.Run(context.Background(), st.Snapshot(), prog, simenv.NewSim(), refeval.Options{})
}

// coldReference is referenceReport's wire report modulo the fields the
// caching layers may change.
func coldReference(t *testing.T, spec string, data []byte) []byte {
	t.Helper()
	return wireModuloCaching(t, referenceReport(t, spec, data).Wire())
}

// One tenant, one payload name, a projection and a lineage per spec. Two
// specs with disjoint footprints validate one payload name in turn, on the same
// bytes and on bytes that differ in values only: each answer is the cold
// unprojected one, so neither spec is ever served the other's projected
// parse, as last good data or as a re-parse base.
func TestSpecsWithDisjointFootprintsShareAPayloadName(t *testing.T) {
	ctx := context.Background()
	specs := map[string]string{
		"app": "$app.timeout -> int & [1, 60]\n$app.retries -> int & [0, 5]\n",
		"db":  "$db.port -> int & [1, 9999]\n$db.host -> nonempty\n",
	}
	srv := New(Config{})
	for name, src := range specs {
		if _, err := srv.RegisterSpec("acme", name, src); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 4; round++ {
		data := fmt.Sprintf("app.timeout = %d\napp.retries = 2\ndb.port = %d\ndb.host = db1\n", 30+370*(round%2), 5432+50000*(round/2))
		for _, name := range []string{"app", "db", "app", "db"} {
			resp, err := srv.ValidateBody(ctx, "acme", name, requestBody(t, kvRequest(data)))
			if err != nil {
				t.Fatal(err)
			}
			if o := resp.Load.Outcomes[0]; o.Instances != 4 || o.Projected == nil || *o.Projected != 2 {
				t.Fatalf("round %d, spec %s: outcome %+v; want 2 of 4 instances loaded", round, name, o)
			}
			if got, want := wireModuloCaching(t, resp.Report), coldReference(t, specs[name], []byte(data)); !bytes.Equal(got, want) {
				t.Fatalf("round %d, spec %s:\n got: %s\nwant: %s", round, name, got, want)
			}
		}
	}
}

// Specs that take turns over one payload name each keep their own
// projected parse: every load after the first of each re-parses against
// it, and a malformed payload is served it stale. Each body differs in
// trailing whitespace only, so no request is answered from the result
// cache.
func TestAlternatingSpecsKeepTheirParses(t *testing.T) {
	ctx := context.Background()
	specs := map[string]string{
		"app": "$app.timeout -> int & [1, 60]\n",
		"db":  "$db.port -> int & [1, 9999]\n",
	}
	srv := New(Config{})
	for name, src := range specs {
		if _, err := srv.RegisterSpec("acme", name, src); err != nil {
			t.Fatal(err)
		}
	}
	const data = "app.timeout = 30\ndb.port = 5432\n"
	want := map[string][]byte{}
	for name, src := range specs {
		want[name] = coldReference(t, src, []byte(data))
	}
	validate := func(name, data string, pad int) *ValidateResponse {
		t.Helper()
		body := append(requestBody(t, kvRequest(data)), bytes.Repeat([]byte(" "), pad)...)
		resp, err := srv.ValidateBody(ctx, "acme", name, body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for round := 0; round < 4; round++ {
		for _, name := range []string{"app", "db"} {
			resp := validate(name, data, round)
			if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, want[name]) {
				t.Fatalf("round %d, spec %s:\n got: %s\nwant: %s", round, name, got, want[name])
			}
		}
	}
	if st := srv.Stats(); st.SourcesParsed != 2 || st.SourcesReparsed != 6 {
		t.Fatalf("%d payloads parsed, %d re-parsed; want 2 and 6: a spec's load dropped the other's parse", st.SourcesParsed, st.SourcesReparsed)
	}
	for round := 0; round < 2; round++ {
		for _, name := range []string{"app", "db"} {
			resp := validate(name, "app.timeout\n", round)
			if o := resp.Load.Outcomes[0]; !o.Stale || o.Projected == nil || *o.Projected != 1 {
				t.Fatalf("round %d, spec %s: outcome %+v; want its own projected parse served stale", round, name, o)
			}
			if got := wireModuloCaching(t, resp.Report); !bytes.Equal(got, want[name]) {
				t.Fatalf("round %d, spec %s, stale:\n got: %s\nwant: %s", round, name, got, want[name])
			}
		}
	}
}
