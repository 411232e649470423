package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"confvalley"
	"confvalley/internal/plan"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

// frontEnd is one set-up program taking checked operations from the
// closed loop's single client.
type frontEnd interface {
	// op performs one validation and checks its answer against the
	// reference. The latency covers what a caller waits for, not the
	// check.
	op() (time.Duration, error)
	// replay and offPath take the latest operation apart in a traced
	// run; see trace.go.
	replay(tr *tracer, ln *lineage) error
	offPath(tr *tracer, ln *lineage) error
	close() error
}

// warmups is the fixed number of checked operations a set-up performs
// after its first, before the program counts as warm.
const warmups = 2

// start performs one set-up — everything the program does before it can
// answer warm — and returns the live front end. setup_s times this call.
func start(in *inputs, workDir string) (frontEnd, error) {
	var fe frontEnd
	var err error
	if in.kv != nil {
		fe, err = startCLI(in, workDir)
	} else {
		fe, err = startService(in)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < 1+warmups; i++ {
		if _, err := fe.op(); err != nil {
			_ = fe.close() // the set-up error is the one to report
			return nil, fmt.Errorf("set-up operation %d: %w", i, err)
		}
	}
	return fe, nil
}

// service is the HTTP front end: a production-default server behind a
// loopback listener, in this process so that one GOMAXPROCS setting
// covers client and server.
type service struct {
	in     *inputs
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	url    string // validate endpoint of the registered spec
	probe  string // validate endpoint of a spec that is not registered
	sent   int

	last    *serve.ValidateResponse // most recent response
	lastLen int                     // and its encoded length
}

func startService(in *inputs) (*service, error) {
	srv := serve.New(serve.Config{Runner: runner.Options{Env: in.env}})
	hs := httptest.NewServer(srv.Handler())
	s := &service{in: in, srv: srv, hs: hs, client: hs.Client()}
	base := hs.URL + "/v1/tenants/" + tenantName + "/specs/"
	s.url, s.probe = base+specName+"/validate", base+"absent/validate"

	req, err := http.NewRequest(http.MethodPut, base+specName, bytes.NewReader([]byte(in.spec)))
	if err != nil {
		_ = s.close()
		return nil, err
	}
	status, body, err := s.roundTrip(req)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("registering the suite: status %d: %.200s", status, body)
	}
	if err != nil {
		_ = s.close()
		return nil, err
	}
	return s, nil
}

func (s *service) roundTrip(req *http.Request) (int, []byte, error) {
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (s *service) post(url string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	status, out, err := s.roundTrip(req)
	return status, out, time.Since(t0), err
}

// nextBody returns the body the server's next request carries.
func (s *service) nextBody() *requestBody { return s.in.body(s.sent) }

func (s *service) op() (time.Duration, error) {
	rb := s.nextBody()
	status, out, lat, err := s.post(s.url, rb.buf)
	if err != nil {
		return lat, err
	}
	if status != http.StatusOK {
		return lat, fmt.Errorf("status %d: %.200s", status, out)
	}
	s.lastLen = len(out)
	var resp serve.ValidateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return lat, fmt.Errorf("decoding the response: %w", err)
	}
	return lat, s.check(rb, &resp)
}

// check compares one response with the reference modulo duration_ns,
// and its specs_reused with what the inputs were built to cause.
func (s *service) check(rb *requestBody, resp *serve.ValidateResponse) error {
	got, reused, err := canonical(resp)
	if err != nil {
		return err
	}
	wantReused := s.in.reused
	if s.sent == 0 {
		wantReused = 0 // a lineage's first run has nothing to splice from
	}
	s.sent++
	s.last = resp
	if reused != wantReused {
		return fmt.Errorf("specs_reused %d, want %d", reused, wantReused)
	}
	if !bytes.Equal(got, rb.want) {
		return fmt.Errorf("response differs from the reference: %.300s", got)
	}
	return nil
}

func (s *service) close() error {
	s.hs.Close() // blocks until the listener and every connection's goroutine are gone
	s.client.CloseIdleConnections()
	return s.srv.Close()
}

// cli is the command-line front end: what one cvcheck process does, per
// operation, through the runner it calls — in this process, so that no
// operation starts a child.
type cli struct {
	in             *inputs
	dir            string
	specPath, data string
	out            bytes.Buffer

	last *runner.Result
}

func startCLI(in *inputs, workDir string) (*cli, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "cli-")
	if err != nil {
		return nil, err
	}
	c := &cli{in: in, dir: dir, specPath: filepath.Join(dir, "typeb.cpl"), data: filepath.Join(dir, "typeb.kv")}
	if err := os.WriteFile(c.specPath, []byte(in.spec), 0o644); err == nil {
		err = os.WriteFile(c.data, in.kv, 0o644)
	}
	if err != nil {
		_ = c.close()
		return nil, err
	}
	return c, nil
}

func (c *cli) op() (time.Duration, error) {
	c.out.Reset()
	t0 := time.Now()
	res, err := runner.New(runner.Options{}).Run(context.Background(), runner.Job{
		SpecPath: c.specPath,
		Sources:  c.sources(),
	})
	if err != nil {
		return time.Since(t0), err
	}
	err = confvalley.RenderReport(res.Report, &c.out)
	lat := time.Since(t0)
	// A cvcheck process would exit here. Without this the plan cache
	// pins one store per compiled program (README.md, follow-ups).
	plan.Forget(res.Program)
	if err != nil {
		return lat, err
	}
	c.last = res
	if res.Data == nil || res.Data.Degraded() {
		return lat, fmt.Errorf("the data file did not load cleanly")
	}
	if got := maskDuration(c.out.Bytes()); !bytes.Equal(got, c.in.wantText) {
		return lat, fmt.Errorf("rendered report differs from the reference: %.300s", got)
	}
	return lat, nil
}

func (c *cli) sources() []confvalley.Source {
	return []confvalley.Source{{Name: c.data, Format: "kv"}}
}

func (c *cli) close() error { return os.RemoveAll(c.dir) }
