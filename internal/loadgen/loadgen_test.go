package loadgen

import (
	"fmt"
	"testing"
)

// A tiny corpus is enough to smoke both drivers: the harness must
// complete every round without errors and report a coherent Result.
func smokeOpts() Options {
	return Options{
		Workers: 2,
		Rounds:  2,
		Spec:    "$timeout -> int & [1, 1000]\n$host -> nonempty\n",
		Format:  "kv",
		Payload: []byte("app.timeout = 250\napp.host = db01\n"),
	}
}

func checkResult(t *testing.T, res Result, mode string) {
	t.Helper()
	if res.Mode != mode {
		t.Errorf("mode = %q, want %q", res.Mode, mode)
	}
	if res.Errors != 0 {
		t.Errorf("%s: %d round errors", mode, res.Errors)
	}
	if want := 2 * 2; res.Validations != want {
		t.Errorf("%s: validations = %d, want %d", mode, res.Validations, want)
	}
	if res.ValidationsPerSec <= 0 || res.WallMS <= 0 {
		t.Errorf("%s: degenerate throughput: %+v", mode, res)
	}
	if res.P50MS <= 0 || res.P99MS < res.P50MS {
		t.Errorf("%s: incoherent percentiles: p50=%v p95=%v p99=%v", mode, res.P50MS, res.P95MS, res.P99MS)
	}
	if res.GOMAXPROCS <= 0 || res.HostCPUs <= 0 {
		t.Errorf("%s: environment not recorded: %+v", mode, res)
	}
}

func TestInProcessSmoke(t *testing.T) {
	res, err := InProcess(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "in-process")
}

func TestHTTPSmoke(t *testing.T) {
	res, err := HTTP(smokeOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, "http")
}

// With the service caches on (the default), a constant payload stream
// is served almost entirely from the result cache, and the harness
// surfaces the server's counters; PayloadFor varies payloads per round
// and defeats it.
func TestHTTPCacheCounters(t *testing.T) {
	opts := smokeOpts()
	opts.Workers, opts.Rounds = 1, 4
	res, err := HTTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerValidations != 1 || res.ResultCacheHits != 3 {
		t.Errorf("constant payload: %d validations / %d hits, want 1 / 3",
			res.ServerValidations, res.ResultCacheHits)
	}

	opts.PayloadFor = func(w, r int) []byte {
		return []byte(fmt.Sprintf("app.timeout = %d\napp.host = db01\n", 100+r))
	}
	res, err = HTTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerValidations != 4 || res.ResultCacheHits != 0 {
		t.Errorf("churned payloads: %d validations / %d hits, want 4 / 0",
			res.ServerValidations, res.ResultCacheHits)
	}
	if res.IncrementalRuns != 3 {
		t.Errorf("churned payloads took %d incremental runs, want 3", res.IncrementalRuns)
	}

	// Disabling every layer forces full validations with zero counters.
	opts.ResultCacheSize, opts.NoIncremental = -1, true
	opts.PayloadFor = nil
	res, err = HTTP(opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ServerValidations != 4 || res.ResultCacheHits != 0 || res.IncrementalRuns != 0 {
		t.Errorf("caches disabled: %+v", res)
	}
}

// A spec that fails to compile must surface as an error from the
// harness, not as per-round error counts.
func TestCompileErrorSurfaces(t *testing.T) {
	opts := smokeOpts()
	opts.Spec = "$broken ->"
	if _, err := InProcess(opts); err == nil {
		t.Error("in-process: compile error not surfaced")
	}
	if _, err := HTTP(opts); err == nil {
		t.Error("http: compile error not surfaced")
	}
}
