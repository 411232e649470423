package serve

// The acceptance contract of validation-as-a-service: a report obtained
// through cvserve+cvcall is byte-identical (modulo timing) to the same
// inputs run through cvcheck, and concurrent requests from independent
// tenants each pin their own snapshot. Both properties fall out of the
// layering — the server drives the same internal/runner pipeline the
// CLI does — and these tests keep it that way.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"confvalley/internal/report"
	"confvalley/internal/runner"
)

// wireModuloTiming re-encodes a wire report with its timing zeroed, the
// "byte-identical modulo timing fields" comparison form.
func wireModuloTiming(t *testing.T, w *report.Wire) []byte {
	t.Helper()
	cp := *w
	cp.DurationNS = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServiceReportMatchesCLIPath runs identical spec+data through the
// HTTP service and through the runner exactly as cvcheck wires it, and
// requires byte-identical wire reports.
func TestServiceReportMatchesCLIPath(t *testing.T) {
	const spec = `$app.timeout -> int & [1, 60]
$app.retries -> int & [0, 5]
$db.host -> nonempty
`
	const data = "app.timeout = 400\napp.retries = 9\ndb.host = db1.example\n"

	// Service path.
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client()}
	ctx := context.Background()
	if _, err := c.Register(ctx, "checks", spec); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Validate(ctx, "checks", ValidateRequest{
		Payloads: []PayloadRef{{Name: "app.kv", Format: "kv", Data: data}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// CLI path: the same job through a fresh runner, as cvcheck submits
	// it per round.
	r := runner.New(runner.Options{})
	res, err := r.Run(ctx, runner.Job{
		SpecSrc:  spec,
		Payloads: []runner.Payload{{Name: "app.kv", Format: "kv", Data: []byte(data)}},
	})
	if err != nil {
		t.Fatal(err)
	}

	got := wireModuloTiming(t, resp.Report)
	want := wireModuloTiming(t, res.Report.Wire())
	if !bytes.Equal(got, want) {
		t.Errorf("service and CLI reports diverged:\nservice: %s\n    cli: %s", got, want)
	}
	if resp.Code != res.Code() {
		t.Errorf("exit-code contract diverged: service %d, cli %d", resp.Code, res.Code())
	}
}

// TestConcurrentTenantsPinIndependentSnapshots drives ≥4 tenants
// concurrently, each validating tenant-specific data against a
// tenant-specific expectation. Any snapshot leakage across tenants (or
// across rounds within one tenant) produces a violation. Run with
// -race; the stress suite picks this up by name.
func TestConcurrentTenantsPinIndependentSnapshots(t *testing.T) {
	// Every round writes a new value, so no round is a result-cache hit
	// and the incremental splice re-runs the spec instead of reusing it;
	// the final validation count proves every round executed.
	srv := New(Config{
		MaxConcurrent: 8,
		MaxQueue:      64,
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ctx := context.Background()

	const tenants = 6
	const rounds = 15
	var wg sync.WaitGroup
	errs := make(chan error, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := &Client{Base: hs.URL, Tenant: fmt.Sprintf("tenant-%d", n), HTTP: hs.Client()}
			// Each tenant's spec accepts exactly its own range of replica
			// counts; the ranges are disjoint, so foreign data violates.
			spec := fmt.Sprintf("$cluster.replicas -> int & [%d, %d]", n*100, n*100+rounds)
			if _, err := c.Register(ctx, "pin", spec); err != nil {
				errs <- fmt.Errorf("tenant %d register: %w", n, err)
				return
			}
			for round := 0; round < rounds; round++ {
				data := fmt.Sprintf("cluster.replicas = %d\n", n*100+round)
				resp, err := c.Validate(ctx, "pin", ValidateRequest{
					Payloads: []PayloadRef{{Name: "c.kv", Format: "kv", Data: data}},
				})
				if err != nil {
					errs <- fmt.Errorf("tenant %d round %d: %w", n, round, err)
					return
				}
				if !resp.Report.Passed {
					errs <- fmt.Errorf("tenant %d round %d saw foreign data: %+v",
						n, round, resp.Report.Violations)
					return
				}
				if resp.Report.InstancesChecked != 1 || resp.Report.SpecsReused != 0 {
					errs <- fmt.Errorf("tenant %d round %d checked %d instances reusing %d specs, want 1 reusing 0 (snapshot not isolated, or not validated)",
						n, round, resp.Report.InstancesChecked, resp.Report.SpecsReused)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if got := srv.Stats().Validations; got != tenants*rounds {
		t.Errorf("validations counted = %d, want %d", got, tenants*rounds)
	}
}
