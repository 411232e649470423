package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Every test in the package runs with released body buffers poisoned: a
// decoded payload, a cached response or a retained snapshot that kept a
// reference into a pooled buffer reads 0xFF afterwards and fails the
// identity tests (under -race, checkptr covers the drivers' unsafe.String
// too).
func TestMain(m *testing.M) {
	poisonReleasedBodies = true
	os.Exit(m.Run())
}

// The validate handler sizes its buffer from Content-Length, which a
// client controls. Whatever the header claims, the status codes are the
// ones the handler gave when it read through io.ReadAll (recorded from the
// parent commit), and the claim alone never sizes an allocation past the
// read limit.
func TestValidateBodyReadBounds(t *testing.T) {
	srv, c := testClient(t, Config{Quotas: Quotas{MaxPayloadBytes: 64}})
	const limit = 2*64 + 1<<20 // the handler's read bound for this quota
	if _, err := c.Register(context.Background(), "one", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	addr := strings.TrimPrefix(c.Base, "http://")

	good := `{"payloads":[{"name":"a.kv","format":"kv","data":"app.timeout = 30\n"}]}`
	overQuota := `{"payloads":[{"name":"a.kv","format":"kv","data":"` + strings.Repeat("k = v\\n", 32) + `"}]}`
	huge := `{"payloads":[{"name":"a.kv","format":"kv","data":"` + strings.Repeat("x", limit) + `"}]}`

	cases := []struct {
		name     string
		body     string
		declared int // Content-Length to send; -1 sends the body chunked
		want     int
	}{
		{"exact length", good, len(good), http.StatusOK},
		{"absent length (chunked)", good, -1, http.StatusOK},
		{"length too short", good, len(good) - 10, http.StatusBadRequest},
		{"length too long, client stops", good, len(good) + 10, http.StatusBadRequest},
		{"length far too long, client stops", good, 1 << 40, http.StatusBadRequest},
		{"payload quota, exact length", overQuota, len(overQuota), http.StatusRequestEntityTooLarge},
		{"length past the limit", huge, len(huge), http.StatusRequestEntityTooLarge},
		{"past the limit, chunked", huge, -1, http.StatusRequestEntityTooLarge},
		{"past the limit, length understated", huge, len(good), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := rawValidate(t, addr, tc.body, tc.declared); got != tc.want {
				t.Errorf("status %d, want %d", got, tc.want)
			}
		})
	}
	// The two well-formed requests carry the same bytes: one run, one hit.
	if v := srv.Stats().Validations; v != 1 {
		t.Errorf("%d validations ran, want 1", v)
	}

	// The declared length as an allocation request: honoured up to the
	// limit, ignored past it.
	for _, declared := range []int64{limit / 2, limit, limit + 1, 1 << 40} {
		r := httptest.NewRequest("POST", "/", strings.NewReader(good))
		r.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := readBody(httptest.NewRecorder(), r, limit)
		runtime.ReadMemStats(&after)
		if err != nil || string(*body) != good {
			t.Errorf("declared %d: read %d bytes, err %v", declared, len(*body), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit+64<<10 {
			t.Errorf("declared %d: allocated %d bytes, more than the %d-byte limit", declared, got, limit)
		}
	}
}

// rawValidate posts body to the validate endpoint over a bare connection,
// so the Content-Length can disagree with what is sent, and returns the
// response's status code. A client that promised more than it sent stops
// by closing its write side.
func rawValidate(t *testing.T, addr, body string, declared int) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	head := "POST /v1/tenants/acme/specs/one/validate HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Type: application/json\r\n"
	if declared >= 0 {
		head += fmt.Sprintf("Content-Length: %d\r\n\r\n", declared)
	} else {
		head += "Transfer-Encoding: chunked\r\n\r\n"
		body = fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(body), body)
	}
	// The server may answer and close before a refused body is fully
	// written; the response is still there to read.
	_, _ = conn.Write([]byte(head + body))
	if declared > len(body) {
		_ = conn.(*net.TCPConn).CloseWrite()
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// A cache hit reads the body to hash it and keeps nothing of it, so a
// stream of hits reads into one pooled buffer: what is left per hit is the
// transport's and the response's garbage, not the body's.
func TestRepeatHitDoesNotAllocateBody(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its puts under the race detector")
	}
	_, c := testClient(t, Config{})
	ctx := context.Background()
	if _, err := c.Register(ctx, "one", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"payloads":[{"name":"a.kv","format":"kv","data":"app.timeout = 30\n` + strings.Repeat("pad.k = v\\n", 1<<20/11) + `"}]}`)
	post := func() {
		t.Helper()
		resp, err := c.HTTP.Post(c.url("v1", "tenants", "acme", "specs", "one", "validate"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	post() // validates, and leaves the cached response behind
	// The pool keeps a buffer per processor (whichever one a handler ran
	// on), so that many hits may each still allocate one.
	hits := 16 * runtime.GOMAXPROCS(0)
	total := allocatedBy(func() {
		for i := 0; i < hits; i++ {
			post()
		}
	})
	if perHit := total / uint64(hits); perHit > uint64(len(body))/4 {
		t.Errorf("%d bytes allocated per cache hit on a %d-byte body, want under a quarter of it", perHit, len(body))
	}
}
