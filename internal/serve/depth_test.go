package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// Registering a spec nested past the parser's bound is a 400 naming the
// error, never a crash: the largest spec registration accepts (1 MiB),
// nested by parentheses and by a flat chain of alternatives, is refused
// within a second. The stack is capped at 64 MB, which a front end that
// recursed once per level would overflow, killing the server.
func TestRegisterDeepSpecRefused(t *testing.T) {
	defer debug.SetMaxStack(debug.SetMaxStack(64 << 20))
	srv := New(Config{})
	limit := int(srv.cfg.Quotas.MaxSpecBytes)
	pad := func(src string) string { return src + strings.Repeat("\n", limit-len(src)) }
	r := strings.Repeat
	for name, src := range map[string]string{
		"parentheses":  pad("$a.b -> " + r("(", limit/2-6) + "int" + r(")", limit/2-6)),
		"alternatives": pad("$a.b -> int" + r("|int", limit/4-3)),
	} {
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/acme/specs/deep", strings.NewReader(src)))
		took := time.Since(start)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "nests deeper than 10000 levels") {
			t.Errorf("%s: %d %s; want 400 and the nesting error", name, rec.Code, rec.Body.String())
		}
		if took > time.Second && !raceEnabled {
			t.Errorf("%s: refused in %v, want within a second", name, took)
		}
	}
}
