package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"confvalley/internal/driver"
)

// DefaultTimeout bounds each request of a Client whose Timeout is zero.
// A validation service client must never hang forever on a stuck server
// by default; callers who really want no bound set Timeout negative.
const DefaultTimeout = 60 * time.Second

// Package-level clients so every serve.Client shares connection pools
// (http.Transport keep-alives) instead of re-dialing per request.
var (
	defaultHTTPClient   = &http.Client{Timeout: DefaultTimeout}
	unboundedHTTPClient = &http.Client{}
)

// Client is the thin Go client cvcall wraps: one method per endpoint,
// JSON in and out, typed errors reconstructed from the server's status
// mapping so callers can errors.Is them exactly like local serve calls.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:7777".
	Base string
	// Tenant scopes every spec operation.
	Tenant string
	// HTTP overrides the transport; nil picks a shared client by
	// Timeout. Note an explicit HTTP client carries its own Timeout
	// policy — http.DefaultClient has none.
	HTTP *http.Client
	// Timeout bounds each request when HTTP is nil: zero means
	// DefaultTimeout, negative means no bound. Per-call contexts still
	// apply either way and win when shorter.
	Timeout time.Duration
	// Retries is how many additional attempts a transient failure earns
	// beyond the first: connection errors (a server mid-restart), 429
	// (admission overflow) and 503 (recovering or draining). Zero
	// disables retries. Every API operation is safe to retry — PUT,
	// DELETE and GET are idempotent and a validate POST is a pure
	// function of its payload — so the policy applies uniformly.
	// The delay before the first retry is 100ms, doubling per attempt
	// up to 2s, each with 50% uniform jitter so retrying clients spread
	// out. A Retry-After header on a 429/503 response overrides the
	// computed delay.
	Retries int
	// Sleep waits between attempts, returning early with ctx.Err() on
	// cancellation. Nil selects a timer-based default; tests inject a
	// no-op to keep retry schedules instantaneous.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c *Client) http() *http.Client {
	switch {
	case c.HTTP != nil:
		return c.HTTP
	case c.Timeout < 0:
		return unboundedHTTPClient
	case c.Timeout == 0:
		return defaultHTTPClient
	default:
		// A custom bound still shares the default transport (zero
		// Transport field), so connection reuse is preserved.
		return &http.Client{Timeout: c.Timeout}
	}
}

func (c *Client) url(parts ...string) string {
	return strings.TrimSuffix(c.Base, "/") + "/" + strings.Join(parts, "/")
}

// retryPolicy is the client's retry schedule in the shape the REST
// driver defines it: capped doubling from 100ms to 2s with 50% uniform
// jitter, waited out through Sleep.
func (c *Client) retryPolicy() driver.RetryPolicy {
	return driver.RetryPolicy{BaseBackoff: 100 * time.Millisecond, MaxBackoff: 2 * time.Second, Jitter: 0.5, Sleep: c.Sleep}
}

// retryAfter parses a 429/503 response's Retry-After header (seconds
// form). ok reports whether the server supplied a usable value; the
// retry loop then honors it over the computed backoff.
func retryAfter(resp *http.Response) (time.Duration, bool) {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0, false
	}
	return time.Duration(secs) * time.Second, true
}

// do issues one request — retrying transient failures per the client's
// retry policy — and decodes the JSON response into out (when
// non-nil), converting error statuses back into the serve package's
// typed errors. body is a byte slice, not a reader, so each retry
// replays it from the start.
func (c *Client) do(ctx context.Context, method, url string, body []byte, out any) error {
	attempts := c.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	policy := c.retryPolicy()
	var lastErr error
	for attempt := 1; ; attempt++ {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			// Connection errors are the transient class retries exist
			// for (a server mid-restart) — unless the caller's context
			// ended, in which case retrying just burns the deadline.
			if ctx.Err() != nil || attempt >= attempts {
				return err
			}
			lastErr = err
			if serr := policy.Wait(ctx, policy.BackoffDelay(attempt)); serr != nil {
				return fmt.Errorf("%w (after %d attempt(s): %v)", serr, attempt, lastErr)
			}
			continue
		}
		if (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable) && attempt < attempts {
			delay, ok := retryAfter(resp)
			if !ok {
				delay = policy.BackoffDelay(attempt)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			lastErr = fmt.Errorf("serve: %s", resp.Status)
			if serr := policy.Wait(ctx, delay); serr != nil {
				return fmt.Errorf("%w (after %d attempt(s): %v)", serr, attempt, lastErr)
			}
			continue
		}
		return decodeResponse(resp, out)
	}
}

// decodeResponse maps one settled HTTP response back into the serve
// package's typed errors, or decodes the success body into out.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var eb errorBody
		msg := resp.Status
		if json.NewDecoder(resp.Body).Decode(&eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		switch resp.StatusCode {
		case http.StatusUnprocessableEntity:
			// A strict registration the server refused on lint errors;
			// the body carried the positioned diagnostics.
			return &LintRejectedError{Diagnostics: eb.Diagnostics}
		case http.StatusNotFound:
			return fmt.Errorf("%w: %s", ErrNotFound, msg)
		case http.StatusTooManyRequests:
			return fmt.Errorf("%w: %s", ErrBusy, msg)
		case http.StatusServiceUnavailable:
			return fmt.Errorf("%w: %s", ErrNotReady, msg)
		case http.StatusForbidden:
			return fmt.Errorf("%w: %s", ErrQuota, msg)
		case http.StatusRequestEntityTooLarge:
			return fmt.Errorf("%w: %s", ErrTooLarge, msg)
		case http.StatusBadRequest:
			return &BadSpecError{Err: fmt.Errorf("%s", msg)}
		default:
			return fmt.Errorf("serve: %s: %s", resp.Status, msg)
		}
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Register uploads CPL source under the given spec name.
func (c *Client) Register(ctx context.Context, spec, src string) (SpecInfo, error) {
	return c.RegisterWith(ctx, spec, src, RegisterOptions{})
}

// RegisterWith is Register with per-registration options. With
// opts.Strict, error-severity lint findings make the server refuse the
// spec; the returned error is then a *LintRejectedError carrying the
// diagnostics. Advisory findings come back in SpecInfo.Lint either way.
func (c *Client) RegisterWith(ctx context.Context, spec, src string, opts RegisterOptions) (SpecInfo, error) {
	url := c.url("v1", "tenants", c.Tenant, "specs", spec)
	if opts.Strict {
		url += "?strict=1"
	}
	var info SpecInfo
	err := c.do(ctx, http.MethodPut, url, []byte(src), &info)
	return info, err
}

// ListSpecs returns the tenant's registered specs.
func (c *Client) ListSpecs(ctx context.Context) ([]SpecInfo, error) {
	var infos []SpecInfo
	err := c.do(ctx, http.MethodGet, c.url("v1", "tenants", c.Tenant, "specs"), nil, &infos)
	return infos, err
}

// Delete removes one registered spec.
func (c *Client) Delete(ctx context.Context, spec string) error {
	return c.do(ctx, http.MethodDelete, c.url("v1", "tenants", c.Tenant, "specs", spec), nil, nil)
}

// Validate submits payloads/sources against a registered spec.
func (c *Client) Validate(ctx context.Context, spec string, req ValidateRequest) (*ValidateResponse, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var resp ValidateResponse
	if err := c.do(ctx, http.MethodPost, c.url("v1", "tenants", c.Tenant, "specs", spec, "validate"), b, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// LastReport fetches the most recent validate response for a spec.
func (c *Client) LastReport(ctx context.Context, spec string) (*ValidateResponse, error) {
	var resp ValidateResponse
	if err := c.do(ctx, http.MethodGet, c.url("v1", "tenants", c.Tenant, "specs", spec, "report"), nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Ready fetches the readiness endpoint. It decodes the lifecycle info
// from either status and reports a not-ready server as an ErrNotReady
// error alongside it, so pollers can both branch on readiness and
// render the phase. Ready never retries internally — a poller supplies
// its own cadence.
func (c *Client) Ready(ctx context.Context) (ReadyInfo, error) {
	var info ReadyInfo
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("readyz"), nil)
	if err != nil {
		return info, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close()
	if derr := json.NewDecoder(resp.Body).Decode(&info); derr != nil && resp.StatusCode == http.StatusOK {
		return info, derr
	}
	if resp.StatusCode != http.StatusOK {
		return info, fmt.Errorf("%w: %s", ErrNotReady, info.State)
	}
	return info, nil
}

// Health fetches the health endpoint.
func (c *Client) Health(ctx context.Context) (HealthInfo, error) {
	var h HealthInfo
	err := c.do(ctx, http.MethodGet, c.url("healthz"), nil, &h)
	return h, err
}

// Stats fetches the stats endpoint.
func (c *Client) Stats(ctx context.Context) (StatsInfo, error) {
	var s StatsInfo
	err := c.do(ctx, http.MethodGet, c.url("statsz"), nil, &s)
	return s, err
}
