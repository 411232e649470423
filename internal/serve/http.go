package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"confvalley/internal/lint"
)

// Handler builds the HTTP/JSON transport over the service core. The
// API is deliberately small and versioned under /v1:
//
//	GET    /healthz                                     liveness + version
//	GET    /readyz                                      readiness (503 while
//	                                                    recovering or draining)
//	GET    /statsz                                      service counters
//	PUT    /v1/tenants/{tenant}/specs/{spec}            register CPL (body = source; ?strict=1
//	                                                    refuses error-severity lint findings)
//	GET    /v1/tenants/{tenant}/specs                   list registered specs
//	DELETE /v1/tenants/{tenant}/specs/{spec}            delete one spec
//	POST   /v1/tenants/{tenant}/specs/{spec}/validate   validate payloads/sources
//	GET    /v1/tenants/{tenant}/specs/{spec}/report     last validate response
//
// Errors are JSON objects {"error": "..."} with the mapped status:
// 400 bad input or CPL compile failure, 403 count quota exceeded,
// 404 unknown tenant/spec, 413 byte-size quota, 422 strict registration
// refused on lint errors (the body carries the positioned diagnostics),
// 429 admission overflow (all validation slots and the wait queue are
// full), 503 not ready (still recovering durable state, or draining
// for shutdown). 429 and 503 carry a Retry-After header; the client's
// retry loop honors it over its computed backoff.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Health())
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		info := s.Readiness()
		if !info.Ready {
			w.Header().Set("Retry-After", retryAfterSeconds)
			writeJSON(w, http.StatusServiceUnavailable, info)
			return
		}
		writeJSON(w, http.StatusOK, info)
	})
	mux.HandleFunc("GET /statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("PUT /v1/tenants/{tenant}/specs/{spec}", func(w http.ResponseWriter, r *http.Request) {
		src, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.Quotas.MaxSpecBytes+1))
		if err != nil {
			writeError(w, bodyReadError(err))
			return
		}
		// ?strict=1 refuses specs with error-severity lint findings.
		strict, _ := strconv.ParseBool(r.URL.Query().Get("strict"))
		info, err := s.RegisterSpecWith(r.PathValue("tenant"), r.PathValue("spec"), string(src), RegisterOptions{Strict: strict})
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, info)
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}/specs", func(w http.ResponseWriter, r *http.Request) {
		infos, err := s.ListSpecs(r.PathValue("tenant"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, infos)
	})
	mux.HandleFunc("DELETE /v1/tenants/{tenant}/specs/{spec}", func(w http.ResponseWriter, r *http.Request) {
		if err := s.DeleteSpec(r.PathValue("tenant"), r.PathValue("spec")); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("POST /v1/tenants/{tenant}/specs/{spec}/validate", func(w http.ResponseWriter, r *http.Request) {
		// The read bound leaves headroom over the payload quota for JSON
		// framing; the precise byte quota is enforced in ValidateBody. The
		// whole body is read up front so ValidateBody can content-address
		// the raw bytes before paying for a JSON decode. The buffer goes
		// back to the pool when the handler is done: ValidateBody keeps no
		// reference into the body it is handed.
		body, err := readBody(w, r, 2*s.cfg.Quotas.MaxPayloadBytes+(1<<20))
		defer releaseBody(body)
		if err != nil {
			writeError(w, bodyReadError(err))
			return
		}
		resp, err := s.ValidateBody(r.Context(), r.PathValue("tenant"), r.PathValue("spec"), *body)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /v1/tenants/{tenant}/specs/{spec}/report", func(w http.ResponseWriter, r *http.Request) {
		resp, err := s.LastReport(r.PathValue("tenant"), r.PathValue("spec"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	return mux
}

type errorBody struct {
	Error string `json:"error"`
	// Diagnostics carries the positioned lint findings of a strict
	// registration refused with 422.
	Diagnostics []lint.Diagnostic `json:"diagnostics,omitempty"`
}

func errBody(msg string) errorBody { return errorBody{Error: msg} }

// retryAfterSeconds is the Retry-After hint on 429 (admission
// overflow) and 503 (not ready) responses: long enough that a
// retrying client backs off the hot path, short enough that recovery
// or a freed validation slot is picked up promptly.
const retryAfterSeconds = "1"

// bodyPool holds validate request bodies between requests: a body is read
// to be hashed and decoded and nothing of it outlives the handler, so a
// stream of requests reads into one buffer instead of allocating a body's
// worth of garbage each.
var bodyPool sync.Pool // of *[]byte

// poisonReleasedBodies makes releaseBody and releasePayloads overwrite a
// buffer with 0xFF before pooling it. The package's tests switch it on
// (TestMain), so that a reference kept into a body or a released payload
// buffer fails a test instead of reading a later request's bytes in
// production.
var poisonReleasedBodies bool

// readBody reads a request body of at most limit bytes into one pooled
// buffer, replaced by one sized from the declared Content-Length when it
// is too small, so a multi-megabyte payload is not copied through
// io.ReadAll's successive doublings. The declaration is only a hint: an
// absent one, and one past the limit (a request about to be refused),
// starts small as io.ReadAll does, and a wrong one is corrected by growth
// or by the transport's own error — the bytes and the error are what
// io.ReadAll over the same MaxBytesReader returns. The buffer is the
// caller's until it calls releaseBody, error or not.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) (*[]byte, error) {
	src := http.MaxBytesReader(w, r.Body, limit)
	hint := r.ContentLength
	if hint < bytes.MinRead || hint > limit {
		hint = bytes.MinRead
	}
	body, _ := bodyPool.Get().(*[]byte)
	if body == nil {
		body = new([]byte)
	}
	buf := (*body)[:0]
	if int64(cap(buf)) < hint {
		buf = make([]byte, 0, hint)
	}
	for {
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			*body = buf
			return body, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// releaseBody returns a buffer readBody handed out to the pool; the
// caller must hold no reference into it.
func releaseBody(body *[]byte) {
	if poisonReleasedBodies {
		poison(*body)
	}
	bodyPool.Put(body)
}

// poison overwrites all of buf's capacity with 0xFF.
func poison(buf []byte) {
	buf = buf[:cap(buf)]
	for i := range buf {
		buf[i] = 0xFF
	}
}

// bodyReadError classifies a request-body read failure: only the
// MaxBytesReader tripping is the client exceeding a byte-size quota
// (413); any other failure is a transport problem with the request
// itself (a client that died mid-upload, a Content-Length lie) and
// maps to 400, not 413.
func bodyReadError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("%w: request body exceeds %d bytes", ErrTooLarge, mbe.Limit)
	}
	return fmt.Errorf("%w: reading request body: %v", ErrBadRequest, err)
}

// writeError maps the service core's typed errors onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var badSpec *BadSpecError
	var lintRejected *LintRejectedError
	switch {
	case errors.As(err, &lintRejected):
		writeJSON(w, http.StatusUnprocessableEntity, errorBody{
			Error:       err.Error(),
			Diagnostics: lintRejected.Diagnostics,
		})
		return
	case errors.As(err, &badSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrBadName), errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrQuota):
		status = http.StatusForbidden
	case errors.Is(err, ErrBusy):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", retryAfterSeconds)
	case errors.Is(err, ErrNotReady):
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	writeJSON(w, status, errBody(err.Error()))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}
