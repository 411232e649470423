package driver

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"confvalley/internal/config"
)

// restDriver loads configuration from a REST endpoint, the "runtime
// information"-style source in the paper's Listing 5
// ("load 'runninginstance' '10.119.64.74:443'"). The fetch goes through a
// replaceable Transport: the default serves JSON documents registered
// against endpoint URLs in an in-process registry so tests and examples
// stay hermetic, and deployments (or fault-injection harnesses) install
// their own. Fetches retry transient failures with per-attempt timeouts
// and capped exponential backoff with jitter, because a flaky endpoint on
// the deployment path must degrade to a per-source error, not hang the
// validation round (ConfValley validates *before* deployment, when remote
// sources are at their least reliable).
type restDriver struct{}

// Transport fetches the raw document behind a REST endpoint URL. It must
// honor ctx cancellation; a nil byte slice with a nil error is treated as
// an empty document.
type Transport func(ctx context.Context, url string) ([]byte, error)

var (
	restMu        sync.RWMutex
	restEndpoints = make(map[string][]byte)
	restTransport Transport // nil = registry transport
	restRetry     = DefaultRetryPolicy()
)

// RegisterEndpoint installs a JSON document for a simulated REST endpoint.
func RegisterEndpoint(url string, jsonDoc []byte) {
	restMu.Lock()
	defer restMu.Unlock()
	restEndpoints[url] = jsonDoc
}

// ClearEndpoints removes all simulated endpoints (test hygiene).
func ClearEndpoints() {
	restMu.Lock()
	defer restMu.Unlock()
	restEndpoints = make(map[string][]byte)
}

// SetTransport replaces the REST fetch function and returns the previous
// one (nil selects the in-process endpoint registry). Fault-injection
// harnesses wrap the registry transport; real deployments would install
// an HTTP client here.
func SetTransport(t Transport) Transport {
	restMu.Lock()
	defer restMu.Unlock()
	prev := restTransport
	restTransport = t
	return prev
}

// SetRetryPolicy replaces the REST retry policy and returns the previous
// one.
func SetRetryPolicy(p RetryPolicy) RetryPolicy {
	restMu.Lock()
	defer restMu.Unlock()
	prev := restRetry
	restRetry = p
	return prev
}

// registryFetch is the default transport: an in-process URL → document
// registry.
func registryFetch(_ context.Context, url string) ([]byte, error) {
	restMu.RLock()
	doc, ok := restEndpoints[url]
	restMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("endpoint %q not reachable (no registered document)", url)
	}
	return doc, nil
}

// RetryPolicy bounds how hard a REST fetch tries before giving up.
type RetryPolicy struct {
	// Attempts is the total number of tries (first attempt included).
	Attempts int
	// PerAttemptTimeout bounds each individual attempt; 0 = no bound
	// beyond the caller's context.
	PerAttemptTimeout time.Duration
	// BaseBackoff is the delay before the second attempt; each subsequent
	// delay doubles, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter scales a uniform random addition to each delay: the actual
	// wait is d + U[0, Jitter·d). Zero disables jitter.
	Jitter float64
	// Sleep waits for the backoff delay, returning early with ctx.Err()
	// on cancellation. Nil selects a timer-based default; tests inject a
	// no-op to keep retry schedules instantaneous.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy returns the production defaults: three attempts,
// 2s per attempt, 50ms base backoff capped at 1s with 50% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Attempts:          3,
		PerAttemptTimeout: 2 * time.Second,
		BaseBackoff:       50 * time.Millisecond,
		MaxBackoff:        time.Second,
		Jitter:            0.5,
	}
}

// Wait sleeps for d through the policy's Sleep (or a timer), returning
// early with ctx.Err() on cancellation.
func (p RetryPolicy) Wait(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jitterRNG backs backoff jitter. Guarded by its own mutex: fetches from
// concurrent loads share it.
var (
	jitterMu  sync.Mutex
	jitterRNG = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// BackoffDelay returns the capped exponential delay, jittered, to wait
// after failed attempt n (n = 1 is the delay after the first failure).
// It is the repository's one backoff: REST fetches and the service
// client both wait by it.
func (p RetryPolicy) BackoffDelay(n int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.MaxBackoff > 0 && d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	if p.Jitter > 0 && d > 0 {
		jitterMu.Lock()
		f := jitterRNG.Float64()
		jitterMu.Unlock()
		d += time.Duration(f * p.Jitter * float64(d))
	}
	return d
}

// Fetch retrieves the document behind url through the installed
// transport, applying the retry policy: per-attempt timeouts and capped
// exponential backoff with jitter between attempts. It returns the last
// attempt's error once the attempts are exhausted, and stops immediately
// when ctx is canceled.
func Fetch(ctx context.Context, url string) ([]byte, error) {
	restMu.RLock()
	t, p := restTransport, restRetry
	restMu.RUnlock()
	if t == nil {
		t = registryFetch
	}
	if p.Attempts < 1 {
		p.Attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= p.Attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		actx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		doc, err := t(actx, url)
		cancel()
		if err == nil {
			return doc, nil
		}
		lastErr = err
		if attempt < p.Attempts {
			if err := p.Wait(ctx, p.BackoffDelay(attempt)); err != nil {
				return nil, fmt.Errorf("rest: %s: %w (after %d attempt(s): %v)", url, err, attempt, lastErr)
			}
		}
	}
	return nil, fmt.Errorf("rest: %s: %w (%d attempt(s))", url, lastErr, p.Attempts)
}

func init() { Register(restDriver{}) }

func (restDriver) Name() string { return "rest" }

// Parse treats data as the endpoint URL, fetches the document through the
// transport (with retries) and delegates to the JSON driver.
func (restDriver) Parse(data []byte, sourceName string) ([]*config.Instance, error) {
	return restDriver{}.ParseContext(context.Background(), data, sourceName)
}

// ParseContext is Parse under a caller-supplied context: the fetch's
// retries, timeouts and backoff waits all stop when ctx is canceled.
func (restDriver) ParseContext(ctx context.Context, data []byte, sourceName string) ([]*config.Instance, error) {
	url := strings.TrimSpace(string(data))
	doc, err := Fetch(ctx, url)
	if err != nil {
		return nil, err
	}
	return jsonDriver{}.Parse(doc, url)
}
