package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Client retry-policy tests: transient failures (connection errors,
// 429, 503) earn capped jittered backoff retries, Retry-After wins over
// the computed delay, and everything else fails immediately.

// flakyTransport fails the first n round trips with a connection-style
// error, then hands off to the real transport.
type flakyTransport struct {
	fails int32
	next  http.RoundTripper
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if atomic.AddInt32(&f.fails, -1) >= 0 {
		return nil, fmt.Errorf("dial tcp: connection refused (injected)")
	}
	return f.next.RoundTrip(req)
}

// noSleep records requested delays without waiting.
func noSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestClientRetriesConnectionErrors(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	var delays []time.Duration
	c := &Client{
		Base:    hs.URL,
		Tenant:  "acme",
		HTTP:    &http.Client{Transport: &flakyTransport{fails: 2, next: http.DefaultTransport}},
		Retries: 3,
		Sleep:   noSleep(&delays),
	}
	info, err := c.Register(context.Background(), "timeout", timeoutSpec)
	if err != nil {
		t.Fatalf("register through 2 connection failures: %v", err)
	}
	if info.Name != "timeout" {
		t.Errorf("info = %+v", info)
	}
	if len(delays) != 2 {
		t.Errorf("slept %d times, want 2 (one per failed attempt)", len(delays))
	}
	// The registration must have happened exactly once server-side.
	if infos, err := srv.ListSpecs("acme"); err != nil || len(infos) != 1 {
		t.Errorf("server registry = %+v, %v", infos, err)
	}
}

func TestClientRetries503HonoringRetryAfter(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(errBody("not ready: recovering"))
			return
		}
		json.NewEncoder(w).Encode(HealthInfo{Status: "ok"})
	}))
	defer hs.Close()
	var delays []time.Duration
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client(), Retries: 3, Sleep: noSleep(&delays)}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health through 2x 503: %v", err)
	}
	if h.Status != "ok" || calls.Load() != 3 {
		t.Errorf("status %q after %d calls, want ok after 3", h.Status, calls.Load())
	}
	// The server's Retry-After must override the computed backoff
	// (which defaults to 100–150ms, nowhere near 7s).
	if len(delays) != 2 || delays[0] != 7*time.Second || delays[1] != 7*time.Second {
		t.Errorf("delays = %v, want [7s 7s] from Retry-After", delays)
	}
}

func TestClientRetries429WithComputedBackoff(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// No Retry-After: the client must fall back to backoff.
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(errBody("busy"))
			return
		}
		json.NewEncoder(w).Encode([]SpecInfo{})
	}))
	defer hs.Close()
	var delays []time.Duration
	c := &Client{
		Base: hs.URL, Tenant: "acme", HTTP: hs.Client(),
		Retries: 2, Sleep: noSleep(&delays),
	}
	if _, err := c.ListSpecs(context.Background()); err != nil {
		t.Fatalf("list through one 429: %v", err)
	}
	if len(delays) != 1 {
		t.Fatalf("slept %d times, want 1", len(delays))
	}
	// First retry: the 100ms base delay plus up to 50% jitter.
	if delays[0] < 100*time.Millisecond || delays[0] > 150*time.Millisecond {
		t.Errorf("first backoff = %v, want within [100ms, 150ms]", delays[0])
	}
}

func TestClientRetriesExhaustedKeepTypedError(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(errBody("not ready: draining"))
	}))
	defer hs.Close()
	var delays []time.Duration
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client(), Retries: 2, Sleep: noSleep(&delays)}
	_, err := c.ListSpecs(context.Background())
	if !errors.Is(err, ErrNotReady) {
		t.Fatalf("exhausted retries err = %v, want ErrNotReady", err)
	}
	if calls.Load() != 3 || len(delays) != 2 {
		t.Errorf("%d calls, %d sleeps — want 3 and 2", calls.Load(), len(delays))
	}
}

func TestClientDoesNotRetryNonTransientStatus(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(errBody("no such spec"))
	}))
	defer hs.Close()
	var delays []time.Duration
	c := &Client{Base: hs.URL, Tenant: "acme", HTTP: hs.Client(), Retries: 5, Sleep: noSleep(&delays)}
	_, err := c.LastReport(context.Background(), "ghost")
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if calls.Load() != 1 || len(delays) != 0 {
		t.Errorf("%d calls, %d sleeps — a 404 must not be retried", calls.Load(), len(delays))
	}
}

func TestClientRetryStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		Base: "http://127.0.0.1:1", Tenant: "acme", Retries: 100,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // simulate the deadline landing mid-backoff
			return ctx.Err()
		},
	}
	_, err := c.ListSpecs(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestBackoffDelayCapsAndJitters(t *testing.T) {
	c := &Client{}
	for n, want := range map[int]time.Duration{1: 100 * time.Millisecond, 2: 200 * time.Millisecond, 3: 400 * time.Millisecond, 5: 1600 * time.Millisecond, 6: 2 * time.Second, 9: 2 * time.Second} {
		for i := 0; i < 50; i++ {
			d := c.retryPolicy().BackoffDelay(n)
			if d < want || d > want+want/2 {
				t.Fatalf("backoffDelay(%d) = %v, want within [%v, %v]", n, d, want, want+want/2)
			}
		}
	}
}

// --- satellite regression: body-read error classification ---

// TestOversizedSpecBodyIs413 exercises the MaxBytesReader path: a spec
// over the byte quota is the client's fault and maps to 413.
func TestOversizedSpecBodyIs413(t *testing.T) {
	_, c := testClient(t, Config{Quotas: Quotas{MaxSpecBytes: 64}})
	_, err := c.Register(context.Background(), "big", strings.Repeat("# pad\n", 64)+timeoutSpec)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized register err = %v, want ErrTooLarge", err)
	}
}

// TestTruncatedUploadIs400 kills the upload mid-body (Content-Length
// promises more bytes than arrive) and checks the server reports a 400
// transport problem — not the 413 every body-read error used to get.
func TestTruncatedUploadIs400(t *testing.T) {
	srv := New(Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	conn, err := net.Dial("tcp", strings.TrimPrefix(hs.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Promise 500 bytes, deliver 10, half-close the write side: the
	// handler's io.ReadAll fails with an unexpected EOF, not a
	// MaxBytesError.
	fmt.Fprintf(conn, "PUT /v1/tenants/acme/specs/cut HTTP/1.1\r\nHost: x\r\nContent-Length: 500\r\n\r\n")
	conn.Write([]byte("$app.timeo"))
	conn.(*net.TCPConn).CloseWrite()

	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response from truncated upload: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated upload status = %d, want 400", resp.StatusCode)
	}
}

// TestBodyReadErrorClassification pins the classifier itself on both
// error shapes.
func TestBodyReadErrorClassification(t *testing.T) {
	if err := bodyReadError(&http.MaxBytesError{Limit: 9}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("MaxBytesError classified as %v, want ErrTooLarge", err)
	}
	if err := bodyReadError(fmt.Errorf("unexpected EOF")); !errors.Is(err, ErrBadRequest) {
		t.Errorf("transport error classified as %v, want ErrBadRequest", err)
	}
}

// TestRetryAfterHeaderOnBusyAnd503 pins the satellite contract: 429 and
// 503 responses carry Retry-After so well-behaved clients pace
// themselves.
func TestRetryAfterHeaderOnBusyAnd503(t *testing.T) {
	for _, tc := range []struct {
		err  error
		code int
	}{
		{ErrBusy, http.StatusTooManyRequests},
		{ErrNotReady, http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		writeError(rec, fmt.Errorf("%w: test", tc.err))
		if rec.Code != tc.code {
			t.Errorf("%v status = %d, want %d", tc.err, rec.Code, tc.code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("%v response missing Retry-After header", tc.err)
		}
	}
	// Non-transient errors must not invite a retry.
	rec := httptest.NewRecorder()
	writeError(rec, fmt.Errorf("%w: nope", ErrNotFound))
	if rec.Header().Get("Retry-After") != "" {
		t.Error("404 response carries Retry-After; only 429/503 should")
	}
}
