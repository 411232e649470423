package serve

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"confvalley/internal/lint"
	"confvalley/internal/runner"
)

func testClient(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client()}
}

const timeoutSpec = "$app.timeout -> int & [1, 60]"

func TestServiceLifecycle(t *testing.T) {
	_, c := testClient(t, Config{})
	ctx := context.Background()

	info, err := c.Register(ctx, "timeout", timeoutSpec)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "timeout" || info.Specs != 1 || info.HasReport {
		t.Errorf("register info = %+v", info)
	}

	infos, err := c.ListSpecs(ctx)
	if err != nil || len(infos) != 1 || infos[0].Name != "timeout" {
		t.Fatalf("list = %+v, %v", infos, err)
	}

	resp, err := c.Validate(ctx, "timeout", ValidateRequest{
		Payloads: []PayloadRef{{Name: "app.kv", Format: "kv", Data: "app.timeout = 400\n"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != 1 || len(resp.Report.Violations) != 1 || resp.Report.Passed {
		t.Errorf("validate response = code %d, %d violations, passed %t",
			resp.Code, len(resp.Report.Violations), resp.Report.Passed)
	}
	if resp.Load == nil || len(resp.Load.Outcomes) != 1 {
		t.Errorf("load accounting missing: %+v", resp.Load)
	}

	got, err := c.LastReport(ctx, "timeout")
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.Violations[0].Key != resp.Report.Violations[0].Key {
		t.Errorf("last report drifted from validate response")
	}

	if err := c.Delete(ctx, "timeout"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Validate(ctx, "timeout", ValidateRequest{}); !errors.Is(err, ErrNotFound) {
		t.Errorf("validate after delete = %v, want ErrNotFound", err)
	}
}

func TestServiceErrors(t *testing.T) {
	_, c := testClient(t, Config{})
	ctx := context.Background()

	var badSpec *BadSpecError
	if _, err := c.Register(ctx, "bad", "$$ not cpl"); !errors.As(err, &badSpec) {
		t.Errorf("compile failure over HTTP = %v, want BadSpecError", err)
	}
	if _, err := c.Register(ctx, "bad name!", timeoutSpec); !errors.As(err, &badSpec) {
		t.Errorf("bad spec name = %v, want 400", err)
	}
	other := *c
	other.Tenant = "ghost"
	if _, err := other.ListSpecs(ctx); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown tenant list = %v, want ErrNotFound", err)
	}
	if _, err := c.Register(ctx, "ok", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LastReport(ctx, "ok"); !errors.Is(err, ErrNotFound) {
		t.Errorf("report before any validate = %v, want ErrNotFound", err)
	}
}

func TestServiceQuotas(t *testing.T) {
	_, c := testClient(t, Config{Quotas: Quotas{
		MaxSpecs:        1,
		MaxSpecBytes:    256,
		MaxSources:      2,
		MaxPayloadBytes: 64,
		MaxTenants:      1,
	}})
	ctx := context.Background()

	if _, err := c.Register(ctx, "one", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	// Replacing the same name is allowed; a second name trips MaxSpecs.
	if _, err := c.Register(ctx, "one", timeoutSpec); err != nil {
		t.Errorf("re-register same name = %v", err)
	}
	if _, err := c.Register(ctx, "two", timeoutSpec); !errors.Is(err, ErrQuota) {
		t.Errorf("MaxSpecs overflow = %v, want ErrQuota", err)
	}
	if _, err := c.Register(ctx, "big", strings.Repeat("# comment\n", 100)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxSpecBytes overflow = %v, want ErrTooLarge", err)
	}

	// Too many sources in one request.
	req := ValidateRequest{Payloads: []PayloadRef{
		{Name: "a.kv", Data: "a = 1\n"}, {Name: "b.kv", Data: "b = 1\n"}, {Name: "c.kv", Data: "c = 1\n"},
	}}
	if _, err := c.Validate(ctx, "one", req); !errors.Is(err, ErrQuota) {
		t.Errorf("MaxSources overflow = %v, want ErrQuota", err)
	}
	// Too many payload bytes.
	req = ValidateRequest{Payloads: []PayloadRef{{Name: "a.kv", Data: strings.Repeat("k = v\n", 32)}}}
	if _, err := c.Validate(ctx, "one", req); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxPayloadBytes overflow = %v, want ErrTooLarge", err)
	}

	// Tenant limit.
	other := *c
	other.Tenant = "second-tenant"
	if _, err := other.Register(ctx, "s", timeoutSpec); !errors.Is(err, ErrQuota) {
		t.Errorf("MaxTenants overflow = %v, want ErrQuota", err)
	}
}

// Admission control: with every slot taken and the queue full, a
// request is rejected immediately with 429; with a queue position free
// it waits for a slot.
func TestAdmissionControl(t *testing.T) {
	srv, c := testClient(t, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: 50 * time.Millisecond})
	ctx := context.Background()
	if _, err := c.Register(ctx, "s", timeoutSpec); err != nil {
		t.Fatal(err)
	}

	// Occupy the only slot and the only queue seat out-of-band.
	srv.sem <- struct{}{}
	srv.queued.Add(1)
	_, err := c.Validate(ctx, "s", ValidateRequest{
		Payloads: []PayloadRef{{Name: "a.kv", Data: "app.timeout = 1\n"}},
	})
	if !errors.Is(err, ErrBusy) {
		t.Errorf("full queue = %v, want ErrBusy", err)
	}
	if srv.Stats().RejectedBusy == 0 {
		t.Error("busy rejection not counted in stats")
	}

	// Queue seat free but slot held: the request waits QueueWait then
	// rejects.
	srv.queued.Add(-1)
	start := time.Now()
	if _, err := c.Validate(ctx, "s", ValidateRequest{}); !errors.Is(err, ErrBusy) {
		t.Errorf("slot starvation = %v, want ErrBusy", err)
	}
	if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("rejected after %v without waiting QueueWait", waited)
	}

	// Slot released: the same request succeeds.
	<-srv.sem
	if _, err := c.Validate(ctx, "s", ValidateRequest{
		Payloads: []PayloadRef{{Name: "a.kv", Data: "app.timeout = 1\n"}},
	}); err != nil {
		t.Errorf("validate after release = %v", err)
	}
}

// A client that disconnects (or times out) while queued is not a shed:
// it must come back as the context's error and be counted under
// canceled_waiting, leaving rejected_busy — the server-pressure signal —
// untouched.
func TestAcquireCanceledWhileQueued(t *testing.T) {
	srv, _ := testClient(t, Config{MaxConcurrent: 1, MaxQueue: 4, QueueWait: 5 * time.Second})

	// Occupy the only slot out-of-band so the next acquire queues.
	srv.sem <- struct{}{}
	defer func() { <-srv.sem }()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := srv.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire after cancel = %v, want context.Canceled", err)
	}
	if got := srv.Stats().CanceledWaiting; got != 1 {
		t.Errorf("Stats().CanceledWaiting = %d, want 1", got)
	}
	if got := srv.Health().CanceledWaiting; got != 1 {
		t.Errorf("Health().CanceledWaiting = %d, want 1", got)
	}
	if got := srv.Stats().RejectedBusy; got != 0 {
		t.Errorf("cancellation miscounted as shed: RejectedBusy = %d, want 0", got)
	}
}

func TestHealthAndStats(t *testing.T) {
	_, c := testClient(t, Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, "s", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Validate(ctx, "s", ValidateRequest{
		Payloads: []PayloadRef{{Name: "a.kv", Data: "app.timeout = 400\n"}},
	}); err != nil {
		t.Fatal(err)
	}

	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" || h.Tenants != 1 || h.SchemaVersion < 1 {
		t.Errorf("health = %+v", h)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Validations != 1 || st.Violations != 1 {
		t.Errorf("stats counters = %+v", st)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].Name != "acme" || st.Tenants[0].Specs != 1 {
		t.Errorf("tenant stats = %+v", st.Tenants)
	}
	// The tenant's discovery counters are its one run's, as a runner of
	// the server's options counts the same job.
	ref, err := runner.New(runner.Options{}).Run(ctx, runner.Job{SpecSrc: timeoutSpec,
		Payloads: []runner.Payload{{Name: "a.kv", Data: []byte("app.timeout = 400\n")}}})
	if err != nil {
		t.Fatal(err)
	}
	if ts, c := st.Tenants[0], ref.Counts; c.DiscoveryQueries == 0 || ts.DiscoveryQueries != c.DiscoveryQueries ||
		ts.DiscoveryCacheHits != c.DiscoveryCacheHits || ts.DiscoveryScanned != c.DiscoveryScanned {
		t.Errorf("discovery counters %+v, want the run's %+v", ts, c)
	}
	if ts := st.Tenants[0]; ts.SourcesLoaded != 1 || ts.SourcesStale != 0 || ts.SourcesQuarantined != 0 {
		t.Errorf("tenant load counters after one clean payload: %+v", ts)
	}
}

// runnerOptionsMatchServer guards the no-fork property at the options
// level: a server built with a given runner.Options hands exactly those
// options to every tenant.
func TestTenantRunnerUsesConfiguredOptions(t *testing.T) {
	srv := New(Config{Runner: runner.Options{Parallel: 3, MaxStale: 2}})
	tn, err := srv.tenantFor("a", true)
	if err != nil {
		t.Fatal(err)
	}
	if got := tn.runner.Session().Parallel; got != 3 {
		t.Errorf("tenant session Parallel = %d, want 3", got)
	}
	if got := tn.runner.Session().MaxStale; got != 2 {
		t.Errorf("tenant session MaxStale = %d, want 2", got)
	}
}

// Registration runs the lint pass: advisory findings ride along in
// SpecInfo.Lint, strict mode turns error-severity findings into a 422
// that round-trips through the client as a *LintRejectedError, and
// either way the per-tenant counters account for what was observed.
func TestRegisterLint(t *testing.T) {
	srv, c := testClient(t, Config{})
	ctx := context.Background()

	// Clean spec: no diagnostics attached.
	info, err := c.Register(ctx, "clean", timeoutSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Lint) != 0 {
		t.Errorf("clean spec carried diagnostics: %v", info.Lint)
	}

	// Warning-only spec (unused macro): registered, diagnostics attached.
	info, err = c.Register(ctx, "warn", "let Unused := int\n$app.timeout -> int\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Lint) != 1 || info.Lint[0].Code != "CV401" {
		t.Fatalf("advisory diagnostics = %v", info.Lint)
	}
	if info.Lint[0].Line != 1 || info.Lint[0].Severity != lint.Warning {
		t.Errorf("diagnostic lost structure over the wire: %+v", info.Lint[0])
	}

	// Error-severity spec without strict: still registered, advisory.
	contradiction := "$app.timeout -> [10, 5]\n"
	if info, err = c.Register(ctx, "bad", contradiction); err != nil {
		t.Fatal(err)
	}
	if len(info.Lint) == 0 || info.Lint[0].Code != "CV101" {
		t.Errorf("non-strict error diagnostics = %v", info.Lint)
	}

	// Same spec with strict: refused with the diagnostics, not stored.
	_, err = c.RegisterWith(ctx, "bad2", contradiction, RegisterOptions{Strict: true})
	var lre *LintRejectedError
	if !errors.As(err, &lre) {
		t.Fatalf("strict register err = %v (%T), want LintRejectedError", err, err)
	}
	if len(lre.Diagnostics) == 0 || lre.Diagnostics[0].Code != "CV101" {
		t.Errorf("rejected diagnostics = %v", lre.Diagnostics)
	}
	if !strings.Contains(lre.Error(), "failed lint") {
		t.Errorf("LintRejectedError message = %q", lre.Error())
	}
	if _, err := c.ListSpecs(ctx); err != nil {
		t.Fatal(err)
	}
	infos, _ := c.ListSpecs(ctx)
	for _, si := range infos {
		if si.Name == "bad2" {
			t.Error("strict-rejected spec was stored")
		}
	}

	// Counters: 4 lint runs observed 2 errors (bad, bad2) and 1 warning;
	// the identity findings = errors + warnings + infos holds per tenant
	// and in the global rollup, and the strict refusal is counted.
	st := srv.Stats()
	if st.LintRejected != 1 {
		t.Errorf("LintRejected = %d, want 1", st.LintRejected)
	}
	if len(st.Tenants) != 1 {
		t.Fatalf("tenants = %d", len(st.Tenants))
	}
	lc := st.Tenants[0].Lint
	if lc.Errors != 2 || lc.Warnings != 1 || lc.Infos != 0 {
		t.Errorf("tenant lint counters = %+v", lc)
	}
	if lc.Findings != lc.Errors+lc.Warnings+lc.Infos {
		t.Errorf("counter identity broken: %+v", lc)
	}
	if st.Lint != lc {
		t.Errorf("global rollup %+v != tenant %+v", st.Lint, lc)
	}
}

// Strict mode also refuses uncompilable specs — as a positioned CV002
// lint diagnostic rather than the non-strict 400.
func TestRegisterStrictCompileError(t *testing.T) {
	_, c := testClient(t, Config{})
	_, err := c.RegisterWith(context.Background(), "broken", "policy on_violation 'shrug'\n$a.b -> int\n", RegisterOptions{Strict: true})
	var lre *LintRejectedError
	if !errors.As(err, &lre) {
		t.Fatalf("err = %v (%T)", err, err)
	}
	found := false
	for _, d := range lre.Diagnostics {
		if d.Code == "CV002" {
			found = true
		}
	}
	if !found {
		t.Errorf("no CV002 in %v", lre.Diagnostics)
	}
}

// Registration lint resolves includes as the compile does, at
// registration and at journal replay: a spec whose include compiles draws
// no CV002, so strict mode accepts it, and a recovered server counts no
// lint error for it.
func TestRegisterStrictResolvesIncludes(t *testing.T) {
	dir := t.TempDir()
	common := filepath.Join(t.TempDir(), "common.cpl")
	if err := os.WriteFile(common, []byte("$app.timeout -> int & [1, 60]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "include '" + common + "'\n$app.retries -> int\n"
	a := New(Config{StateDir: dir})
	if err := a.Recover(); err != nil {
		t.Fatal(err)
	}
	info, err := a.RegisterSpecWith("acme", "main", src, RegisterOptions{Strict: true})
	if err != nil {
		t.Fatalf("strict registration of a spec whose include compiles: %v", err)
	}
	if len(info.Lint) != 0 {
		t.Errorf("registration lint = %v, want none", info.Lint)
	}
	resp, err := a.ValidateBody(context.Background(), "acme", "main", requestBody(t, kvRequest("app.timeout = 90\napp.retries = 2\n")))
	if err != nil {
		t.Fatal(err)
	}
	if v := resp.Report.Violations; len(v) != 1 || v[0].Key != "app.timeout" {
		t.Errorf("violations = %+v, want the included spec's one on app.timeout", v)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := New(Config{StateDir: dir})
	if err := b.Recover(); err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if lc := b.Stats().Lint; lc.Errors != 0 {
		t.Errorf("replayed registration counted %d lint error(s), want 0", lc.Errors)
	}
}
