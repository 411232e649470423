package driver

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// instantPolicy is a retry policy whose backoff waits record themselves
// instead of sleeping, keeping retry tests deterministic and fast.
func instantPolicy(attempts int) (RetryPolicy, *[]time.Duration) {
	var mu sync.Mutex
	waits := &[]time.Duration{}
	return RetryPolicy{
		Attempts:    attempts,
		BaseBackoff: 50 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error {
			mu.Lock()
			*waits = append(*waits, d)
			mu.Unlock()
			return ctx.Err()
		},
	}, waits
}

func restore(t *testing.T, prevT Transport, prevP RetryPolicy) {
	t.Helper()
	t.Cleanup(func() {
		SetTransport(prevT)
		SetRetryPolicy(prevP)
		ClearEndpoints()
	})
}

func TestFetchRetriesTransientFailures(t *testing.T) {
	calls := 0
	prevT := SetTransport(func(ctx context.Context, url string) ([]byte, error) {
		calls++
		if calls < 3 {
			return nil, errors.New("connection reset")
		}
		return []byte(`{"svc": {"mode": "fast"}}`), nil
	})
	p, waits := instantPolicy(3)
	prevP := SetRetryPolicy(p)
	restore(t, prevT, prevP)

	ins, err := restDriver{}.Parse([]byte("http://cfg.example/api"), "api")
	if err != nil {
		t.Fatalf("fetch with two transient failures errored: %v", err)
	}
	if calls != 3 {
		t.Fatalf("transport called %d times, want 3", calls)
	}
	if len(ins) != 1 || ins[0].Key.String() != "svc.mode" {
		t.Fatalf("instances = %v", ins)
	}
	// Backoff doubles from the base: 50ms then 100ms (no jitter in the
	// test policy).
	if len(*waits) != 2 || (*waits)[0] != 50*time.Millisecond || (*waits)[1] != 100*time.Millisecond {
		t.Fatalf("backoff waits = %v", *waits)
	}
}

func TestFetchExhaustsAttempts(t *testing.T) {
	calls := 0
	prevT := SetTransport(func(ctx context.Context, url string) ([]byte, error) {
		calls++
		return nil, errors.New("endpoint down")
	})
	p, _ := instantPolicy(4)
	prevP := SetRetryPolicy(p)
	restore(t, prevT, prevP)

	_, err := Fetch(context.Background(), "http://cfg.example/api")
	if err == nil || !strings.Contains(err.Error(), "endpoint down") || !strings.Contains(err.Error(), "4 attempt(s)") {
		t.Fatalf("err = %v", err)
	}
	if calls != 4 {
		t.Fatalf("transport called %d times, want 4", calls)
	}
}

func TestFetchStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	prevT := SetTransport(func(ctx context.Context, url string) ([]byte, error) {
		calls++
		cancel() // the failure and the Ctrl-C race; cancel wins before the retry
		return nil, errors.New("flaky")
	})
	p, _ := instantPolicy(5)
	prevP := SetRetryPolicy(p)
	restore(t, prevT, prevP)

	_, err := Fetch(ctx, "http://cfg.example/api")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 1 {
		t.Fatalf("transport called %d times after cancel, want 1", calls)
	}
}

func TestFetchPerAttemptTimeout(t *testing.T) {
	prevT := SetTransport(func(ctx context.Context, url string) ([]byte, error) {
		<-ctx.Done() // a hung endpoint: block until the attempt deadline
		return nil, ctx.Err()
	})
	prevP := SetRetryPolicy(RetryPolicy{
		Attempts:          2,
		PerAttemptTimeout: 5 * time.Millisecond,
		Sleep:             func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})
	restore(t, prevT, prevP)

	start := time.Now()
	_, err := Fetch(context.Background(), "http://cfg.example/hang")
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want per-attempt deadline", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("hung endpoint blocked for %v despite per-attempt timeout", time.Since(start))
	}
}

func TestBackoffDelayCapsAndJitters(t *testing.T) {
	p := RetryPolicy{BaseBackoff: 50 * time.Millisecond, MaxBackoff: 200 * time.Millisecond}
	for n, want := range map[int]time.Duration{
		1: 50 * time.Millisecond,
		2: 100 * time.Millisecond,
		3: 200 * time.Millisecond,
		4: 200 * time.Millisecond, // capped
		9: 200 * time.Millisecond, // stays capped, no overflow
	} {
		if got := p.BackoffDelay(n); got != want {
			t.Errorf("backoffDelay(%d) = %v, want %v", n, got, want)
		}
	}
	p.Jitter = 0.5
	for i := 0; i < 100; i++ {
		d := p.BackoffDelay(2)
		if d < 100*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [100ms, 150ms)", d)
		}
	}
}

func TestRegistryTransportIsDefault(t *testing.T) {
	prevT := SetTransport(nil)
	prevP := SetRetryPolicy(RetryPolicy{Attempts: 1})
	restore(t, prevT, prevP)
	RegisterEndpoint("http://cfg.example/doc", []byte(`{"a": {"b": "1"}}`))

	ins, err := restDriver{}.Parse([]byte(" http://cfg.example/doc \n"), "doc")
	if err != nil || len(ins) != 1 {
		t.Fatalf("registry fetch: ins=%v err=%v", ins, err)
	}
	if _, err := Fetch(context.Background(), "http://cfg.example/absent"); err == nil {
		t.Fatalf("unregistered endpoint fetched successfully")
	}
}
