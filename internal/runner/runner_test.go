package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"confvalley"
)

func TestRunPayloadsOnly(t *testing.T) {
	r := New(Options{})
	res, err := r.Run(context.Background(), Job{
		SpecSrc:  "$app.timeout -> int & [1, 60]",
		Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte("app.timeout = 30\n")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Passed() || res.Code() != 0 {
		t.Errorf("clean run: passed=%t code=%d", res.Report.Passed(), res.Code())
	}
	if c := res.Counts; c.Runs != 1 || c.Parsed != 1 || c.Reparsed+c.Stale+c.Quarantined != 0 {
		t.Errorf("accounting: %+v, want one run with one source parsed", c)
	}
}

func TestRunViolationCode(t *testing.T) {
	r := New(Options{})
	res, err := r.Run(context.Background(), Job{
		SpecSrc:  "$app.timeout -> int & [1, 60]",
		Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte("app.timeout = 400\n")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Code() != 1 || len(res.Report.Violations) != 1 {
		t.Errorf("violating run: code=%d violations=%d", res.Code(), len(res.Report.Violations))
	}
}

func TestRunAllSourcesFailedCode(t *testing.T) {
	r := New(Options{})
	res, err := r.Run(context.Background(), Job{
		SpecSrc: "$app.timeout -> int",
		Sources: []confvalley.Source{{Name: filepath.Join(t.TempDir(), "absent.json"), Format: "json"}},
		Payloads: []Payload{
			{Name: "torn.json", Format: "json", Data: []byte(`{"app":`)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSourcesFailed() || res.Code() != 3 {
		t.Errorf("all-failed run: allFailed=%t code=%d", res.AllSourcesFailed(), res.Code())
	}
}

func TestRunSpecErrors(t *testing.T) {
	r := New(Options{})
	_, err := r.Run(context.Background(), Job{SpecSrc: "$$ not cpl"})
	var se *SpecError
	if !errors.As(err, &se) {
		t.Errorf("compile failure returned %v, want *SpecError", err)
	}
	_, err = r.Run(context.Background(), Job{SpecPath: filepath.Join(t.TempDir(), "absent.cpl")})
	if !errors.As(err, &se) {
		t.Errorf("missing spec file returned %v, want *SpecError", err)
	}
}

// Identical spec source across runs returns the identical *Program —
// the identity that owns the lowered plan and that incremental splicing
// keys on.
func TestCompileCacheStability(t *testing.T) {
	r := New(Options{})
	job := Job{
		SpecSrc:  "$app.timeout -> int",
		Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte("app.timeout = 30\n")}},
	}
	res1, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Program != res2.Program {
		t.Error("identical source recompiled: program identity lost across rounds")
	}
	res3, err := r.Run(context.Background(), Job{SpecSrc: "$app.timeout -> string", Payloads: job.Payloads})
	if err != nil {
		t.Fatal(err)
	}
	if res3.Program == res1.Program {
		t.Error("changed source served the stale cached program")
	}
}

// A spec-file load command contributes to the source accounting, and a
// spec whose every source fails exits 3 — the cvcheck contract, now
// enforced at the runner layer.
func TestRunSpecLoadAccounting(t *testing.T) {
	dir := t.TempDir()
	torn := filepath.Join(dir, "torn.json")
	if err := os.WriteFile(torn, []byte(`{"app":`), 0o644); err != nil {
		t.Fatal(err)
	}
	r := New(Options{})
	res, err := r.Run(context.Background(), Job{
		SpecSrc: "load 'json' '" + torn + "'\n$app.timeout -> int\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecLoads == nil || len(res.SpecLoads.Outcomes) != 1 {
		t.Fatalf("spec load accounting missing: %+v", res.SpecLoads)
	}
	if res.Code() != 3 {
		t.Errorf("spec-load-failed run code = %d, want 3", res.Code())
	}
}

// A run's state carries its parses to the next run: sources torn in
// round 2 are served from round 1's parses, when round 2's job passes
// round 1's state as Prev, as cvcheck -watch does. A round loads two
// batches — the job's sources, then the spec's own load commands — and
// the state keeps the parses of each.
func TestRunServesStaleAcrossRounds(t *testing.T) {
	dir := t.TempDir()
	data, loaded := filepath.Join(dir, "d.json"), filepath.Join(dir, "l.json")
	write := func(path, doc string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(data, `{"app": {"timeout": "30"}}`)
	write(loaded, `{"db": {"port": "5432"}}`)
	r := New(Options{})
	job := Job{
		SpecSrc: "load 'json' '" + loaded + "'\n$app.timeout -> int & [1, 60]\n$db.port -> int\n",
		Sources: []confvalley.Source{{Name: data, Format: "json"}},
	}
	res, err := r.Run(context.Background(), job)
	if err != nil || res.Code() != 0 {
		t.Fatalf("round 1: res=%+v err=%v", res, err)
	}
	write(data, `{"app":`)
	write(loaded, `{"db":`)
	job.Prev = res.State
	res, err = r.Run(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if res.Code() != 0 || !res.Data.Outcomes[0].Stale || !res.SpecLoads.Outcomes[0].Stale {
		t.Errorf("round 2 should serve both stale: code=%d sources %+v spec loads %+v",
			res.Code(), res.Data.Outcomes, res.SpecLoads.Outcomes)
	}
	if c := res.Counts; c.Stale != 2 || c.Parsed+c.Reparsed+c.Quarantined != 0 {
		t.Errorf("round 2 counts %+v, want both sources stale", c)
	}
}

// A run's Counts are its own: the discovery work of its own store, its
// loads and its violations, whatever the runner ran before or beside it.
// Two specs alternate on one runner, each with its own lineage; every
// run counts what a fresh runner counts for the same job, and the
// lineages' sums add up with Add.
func TestRunCountsAreItsOwn(t *testing.T) {
	jobs := []Job{
		{SpecSrc: "$app.*.timeout -> int & [1, 60]\n", Payloads: []Payload{{Name: "a.kv", Format: "kv", Data: []byte("app.x.timeout = 30\napp.y.timeout = 90\n")}}},
		{SpecSrc: "$db.port -> int\n$db.host -> nonempty\n", Payloads: []Payload{{Name: "b.kv", Format: "kv", Data: []byte("db.port = 5432\ndb.host = db1\n")}}},
	}
	fresh := make([]Counts, len(jobs))
	for i, job := range jobs {
		res, err := New(Options{Parallel: 1}).Run(context.Background(), job)
		if err != nil {
			t.Fatal(err)
		}
		if res.Counts.DiscoveryQueries == 0 || res.Counts.Parsed != 1 {
			t.Fatalf("job %d counted %+v, want discovery and one parse", i, res.Counts)
		}
		fresh[i] = res.Counts
	}
	r := New(Options{Parallel: 1})
	var sum, want Counts
	for round := 0; round < 3; round++ {
		for i, job := range jobs {
			res, err := r.Run(context.Background(), job)
			if err != nil {
				t.Fatal(err)
			}
			if res.Counts != fresh[i] {
				t.Errorf("round %d job %d counted %+v; a fresh runner counts %+v", round, i, res.Counts, fresh[i])
			}
			sum.Add(res.Counts)
			want.Runs++
			want.Parsed++
			want.Violations += fresh[i].Violations
			want.DiscoveryQueries += fresh[i].DiscoveryQueries
			want.DiscoveryCacheHits += fresh[i].DiscoveryCacheHits
			want.DiscoveryScanned += fresh[i].DiscoveryScanned
		}
	}
	if sum != want {
		t.Errorf("the runs add up to %+v, want %+v", sum, want)
	}
}

// Concurrent runs on one runner each validate exactly the data their
// own job loaded: each run's store is its own, so nothing one run loads
// leaks into another's validation. Run with -race.
func TestConcurrentRunsIsolated(t *testing.T) {
	r := New(Options{})
	const workers = 8
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		go func(n int) {
			val := []byte("app.id = " + strings.Repeat("7", n+1) + "\n")
			job := Job{
				// Each worker requires its own exact value, so any
				// cross-contamination of stores fails validation.
				SpecSrc:  "$app.id -> {'" + strings.Repeat("7", n+1) + "'}",
				Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: val}},
			}
			for round := 0; round < 20; round++ {
				res, err := r.Run(context.Background(), job)
				if err != nil {
					errs <- err
					return
				}
				if !res.Report.Passed() {
					errs <- errors.New("worker saw another worker's data: " + res.Report.Violations[0].String())
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < workers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// Options.Lint attaches advisory diagnostics to the result and rejects
// specs with error-severity findings via SpecError wrapping LintError.
func TestRunLint(t *testing.T) {
	r := New(Options{Lint: true})
	payload := Payload{Name: "app.kv", Format: "kv", Data: []byte("app.timeout = 30\n")}

	// Clean spec, live reference: no diagnostics.
	res, err := r.Run(context.Background(), Job{
		SpecSrc:  "$app.timeout -> int & [1, 60]",
		Payloads: []Payload{payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("clean spec: diagnostics = %v", res.Diagnostics)
	}

	// Warning-severity finding (drift against the loaded payload):
	// attached, validation still runs.
	res, err = r.Run(context.Background(), Job{
		SpecSrc:  "$app.timeot -> int",
		Payloads: []Payload{payload},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 1 || res.Diagnostics[0].Code != "CV601" {
		t.Errorf("drift spec: diagnostics = %v", res.Diagnostics)
	}
	if res.Report == nil {
		t.Error("warning-severity lint blocked validation")
	}

	// Error-severity finding: rejected as a SpecError wrapping LintError.
	_, err = r.Run(context.Background(), Job{
		SpecSrc:  "$app.timeout -> [10, 5]",
		Payloads: []Payload{payload},
	})
	var se *SpecError
	var le *LintError
	if !errors.As(err, &se) || !errors.As(err, &le) {
		t.Fatalf("err = %v (%T), want SpecError wrapping LintError", err, err)
	}
	if len(le.Diagnostics) == 0 || le.Diagnostics[0].Code != "CV101" {
		t.Errorf("LintError diagnostics = %v", le.Diagnostics)
	}
	if !strings.Contains(le.Error(), "1 error(s)") {
		t.Errorf("LintError message = %q", le.Error())
	}
}

// Without Options.Lint, nothing is linted — pre-existing behavior.
func TestRunNoLintByDefault(t *testing.T) {
	r := New(Options{})
	res, err := r.Run(context.Background(), Job{
		SpecSrc:  "$app.timeot -> int",
		Payloads: []Payload{{Name: "app.kv", Format: "kv", Data: []byte("app.timeout = 30\n")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Diagnostics) != 0 {
		t.Errorf("diagnostics without Lint option: %v", res.Diagnostics)
	}
}

// The job cvcheck -watch submits each round, on one runner: a KV file
// edited in place, rounds alternating between value-only edits, which
// the load re-parses against the previous round's full parse of the
// file, and structural ones, which it parses in full and measures later
// rounds against. Every round's report is a fresh runner's, and the
// outcome says which path each round took.
func TestWatchRoundsReparseValueEdits(t *testing.T) {
	dir := t.TempDir()
	spec, data := filepath.Join(dir, "s.cpl"), filepath.Join(dir, "d.kv")
	write := func(path, doc string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(spec, "$app.timeout -> int & [1, 60]\n$app.retries -> int & [0, 5]\n$db.host -> nonempty\n")
	rounds := []struct {
		doc      string
		reparsed bool
	}{
		{"app.timeout = 30\napp.retries = 2\ndb.host = db1\n", false},
		{"app.timeout = 300\napp.retries = 2\ndb.host = db1\n", true},
		{"app.timeout = 300\napp.retries = 2\napp.retries = 9\ndb.host = db1\n", false}, // a line added
		{"app.timeout = 30\napp.retries = 7\napp.retries = 9\ndb.host = db2\n", true},
		{"app.timeout = 30\ndb.host = db2\n", false}, // lines removed
		{"app.timeout = 45\ndb.host = db3\n", true},
		{"# a comment\napp.timeout = 45\ndb.host = db3\n", false},
		{"# a comment\napp.timeout = 46\ndb.host = db3\n", true},
	}
	ctx := context.Background()
	r := New(Options{})
	sources := []confvalley.Source{{Name: data, Format: "kv"}}
	var prev *confvalley.RunState
	for i, round := range rounds {
		write(data, round.doc)
		res, err := r.Run(ctx, Job{SpecPath: spec, Sources: sources, Prev: prev})
		if err != nil {
			t.Fatal(err)
		}
		prev = res.State
		if o := res.Data.Outcomes[0]; o.Err != "" || o.Reparsed != round.reparsed {
			t.Errorf("round %d: outcome %+v, want a clean load, re-parsed %t", i, o, round.reparsed)
		}
		fresh, err := New(Options{}).Run(ctx, Job{SpecPath: spec, Sources: sources})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := wireModuloReuse(t, res), wireModuloReuse(t, fresh); !bytes.Equal(got, want) {
			t.Errorf("round %d diverged from a fresh runner:\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// wireModuloReuse is a result's wire report with the fields a reusing run
// may change zeroed: its duration and its count of spliced verdicts.
func wireModuloReuse(t *testing.T, res *Result) []byte {
	t.Helper()
	w := res.Report.Wire()
	w.DurationNS, w.SpecsReused = 0, 0
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// An aggregate groups by the store's classes, sequences of segment
// names: {"a.b": {"c"}} and {"a": {"b.c"}} are two classes of one value
// each, both matched by $a*.*c, though both display as a.b.c. Grouping
// by that display merged them and reported the one "1" inconsistent with
// the majority "2".
func TestAggregateKeepsDottedClassesApart(t *testing.T) {
	for _, interpret := range []bool{false, true} {
		res, err := New(Options{Interpret: interpret}).Run(context.Background(), Job{
			SpecSrc:  "$a*.*c -> consistent",
			Payloads: []Payload{{Name: "dotted.json", Format: "json", Data: []byte(`{"a.b": {"c": "1"}, "a": {"b.c": "2"}}`)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep := res.Report; rep.InstancesChecked != 2 || !rep.Passed() {
			t.Errorf("interpret %t: %d instances checked, violations %v; want 2 checked and none", interpret, rep.InstancesChecked, rep.Violations)
		}
	}
}
