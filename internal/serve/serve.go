// Package serve is ConfValley's validation-as-a-service core: the
// multi-tenant state, quota and admission-control layer between the
// HTTP transport (cmd/cvserve) and the shared runner pipeline
// (internal/runner). The paper's deployment is a service teams submit
// specification programs and configuration payloads to, not a one-shot
// CLI; this package gives each tenant an isolated spec-program
// registry and a pinned session whose store is atomically swapped per
// request, so concurrent requests — across tenants and within one —
// each validate against exactly the snapshot their own payloads built.
//
// The layering is strict: serve knows nothing about HTTP status codes
// (http.go maps its typed errors), and nothing in here forks off the
// CLI's behavior — a ValidateBody call is a runner.Job, the same
// structure cvcheck submits per round.
package serve

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"confvalley"
	"confvalley/internal/durable"
	"confvalley/internal/ingest"
	"confvalley/internal/lint"
	"confvalley/internal/plan"
	"confvalley/internal/report"
	"confvalley/internal/runner"
)

// Typed failures; the HTTP layer maps them onto status codes.
var (
	// ErrBusy: admission control rejected the request — every validation
	// slot is taken and the wait queue is full (or the wait timed out).
	ErrBusy = errors.New("serve: server at capacity, retry later")
	// ErrNotFound: unknown tenant or spec.
	ErrNotFound = errors.New("serve: not found")
	// ErrQuota: a per-tenant count quota (tenants, specs, sources) would
	// be exceeded.
	ErrQuota = errors.New("serve: quota exceeded")
	// ErrTooLarge: a byte-size quota (spec source, payload bytes) would
	// be exceeded.
	ErrTooLarge = errors.New("serve: payload too large")
	// ErrBadName: tenant or spec name outside the allowed alphabet.
	ErrBadName = errors.New("serve: bad name")
	// ErrBadRequest: a request body that does not decode.
	ErrBadRequest = errors.New("serve: bad request")
	// ErrNotReady: the server cannot take state-changing or validating
	// requests right now — it is still recovering its durable state, or
	// it is draining for shutdown. The transport maps it to 503 with a
	// Retry-After header; load balancers see the same signal on /readyz.
	ErrNotReady = errors.New("serve: not ready")
)

// BadSpecError wraps a CPL compile failure: the client's spec is at
// fault, not the server.
type BadSpecError struct{ Err error }

func (e *BadSpecError) Error() string { return e.Err.Error() }
func (e *BadSpecError) Unwrap() error { return e.Err }

// LintRejectedError reports a strict registration refused because the
// static-analysis pass found error-severity diagnostics. The transport
// maps it to 422 Unprocessable Entity — the spec parses and may even
// compile, but the service was asked not to accept it — with the full
// diagnostic list in the body so the client can render positions.
type LintRejectedError struct{ Diagnostics []lint.Diagnostic }

func (e *LintRejectedError) Error() string {
	n := 0
	var first string
	for _, d := range e.Diagnostics {
		if d.Severity == lint.Error {
			if n == 0 {
				first = d.String()
			}
			n++
		}
	}
	return fmt.Sprintf("serve: spec failed lint with %d error(s); first: %s", n, first)
}

// Quotas bounds what one tenant may hold and one request may carry.
// Zero values mean "use the default", not "unlimited": a service with
// no limits is one misbehaving client away from eviction.
type Quotas struct {
	// MaxTenants bounds distinct tenants the server will create.
	MaxTenants int
	// MaxSpecs bounds registered specs per tenant.
	MaxSpecs int
	// MaxSpecBytes bounds one registered spec's CPL source size.
	MaxSpecBytes int64
	// MaxSources bounds payloads+sources in one validate request.
	MaxSources int
	// MaxPayloadBytes bounds the total payload bytes of one request.
	MaxPayloadBytes int64
}

// DefaultQuotas are deliberately generous single-box defaults.
func DefaultQuotas() Quotas {
	return Quotas{
		MaxTenants:      64,
		MaxSpecs:        128,
		MaxSpecBytes:    1 << 20, // 1 MiB of CPL
		MaxSources:      64,
		MaxPayloadBytes: 32 << 20, // 32 MiB of configuration per request
	}
}

func (q Quotas) withDefaults() Quotas {
	d := DefaultQuotas()
	if q.MaxTenants == 0 {
		q.MaxTenants = d.MaxTenants
	}
	if q.MaxSpecs == 0 {
		q.MaxSpecs = d.MaxSpecs
	}
	if q.MaxSpecBytes == 0 {
		q.MaxSpecBytes = d.MaxSpecBytes
	}
	if q.MaxSources == 0 {
		q.MaxSources = d.MaxSources
	}
	if q.MaxPayloadBytes == 0 {
		q.MaxPayloadBytes = d.MaxPayloadBytes
	}
	return q
}

// Config assembles a server.
type Config struct {
	Quotas Quotas
	// MaxConcurrent bounds validations running at once (default 4).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for a slot beyond which new ones
	// are rejected with ErrBusy (default 2×MaxConcurrent).
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot
	// before ErrBusy (default 10s).
	QueueWait time.Duration
	// ResultCacheSize bounds each tenant's (spec, payload content) →
	// response cache, which also coalesces identical in-flight requests
	// into one validation. Zero or negative selects the default, 256.
	ResultCacheSize int
	// StateDir, when non-empty, makes tenant registries durable: every
	// accepted registration/deletion is journaled (fsync'd) to this
	// directory before it is acknowledged, and Recover replays the
	// journal on startup. Empty keeps today's purely in-memory state.
	StateDir string
	// CompactEvery folds the journal into a snapshot after this many
	// appends; zero or negative selects the default, 1024. Only
	// meaningful with StateDir.
	CompactEvery int
	// Runner configures each tenant's validation pipeline (parallelism,
	// staleness policy).
	Runner runner.Options
}

// nameRE is the tenant/spec name alphabet: filesystem- and URL-safe.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Lifecycle states. An in-memory server is born ready; a durable one
// is born recovering and flips to ready when Recover finishes. Either
// kind moves to draining exactly once, on StartDrain, and never back:
// readiness is monotone so a load balancer that saw 503 on /readyz
// during drain can trust the server is going away.
const (
	stateRecovering int32 = iota
	stateReady
	stateDraining
)

// Server is the multi-tenant validation service.
type Server struct {
	cfg   Config
	start time.Time

	// state is the lifecycle phase (recovering/ready/draining); every
	// state-changing or validating entry point gates on it.
	state atomic.Int32

	// commitMu serializes durable mutations (register/delete) against
	// each other and against drain: an operation holds it across its
	// in-memory apply and its journal append, so observers of the
	// journal see exactly the acknowledged operations — never a
	// half-applied one — and Close cannot take the journal away
	// mid-commit. nil log (in-memory mode) skips it entirely.
	commitMu sync.Mutex
	log      *durable.Log

	mu      sync.RWMutex
	tenants map[string]*tenant

	// sem holds one token per in-flight validation; queued counts
	// requests waiting for a token.
	sem    chan struct{}
	queued atomic.Int64

	// Recovery accounting, written once by Recover before the server
	// turns ready and read by the stats endpoint afterwards.
	recoveredSpecs  atomic.Int64
	replayedRecords atomic.Int64
	tornTruncations atomic.Int64
	replaySkipped   atomic.Int64

	// Cumulative counters for the stats endpoint.
	validations     atomic.Int64
	violations      atomic.Int64
	rejectedBusy    atomic.Int64
	canceledWaiting atomic.Int64 // requests canceled by the client while queued
	denied          atomic.Int64 // quota / size / name rejections
	lintRejected    atomic.Int64 // strict registrations refused on lint errors
}

// New returns a server with cfg's gaps filled by defaults.
func New(cfg Config) *Server {
	cfg.Quotas = cfg.Quotas.withDefaults()
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxConcurrent
	}
	if cfg.QueueWait == 0 {
		cfg.QueueWait = 10 * time.Second
	}
	if cfg.ResultCacheSize <= 0 {
		cfg.ResultCacheSize = 256
	}
	if cfg.CompactEvery <= 0 {
		cfg.CompactEvery = 1024
	}
	s := &Server{
		cfg:     cfg,
		start:   time.Now(),
		tenants: make(map[string]*tenant),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
	}
	if cfg.StateDir == "" {
		s.state.Store(stateReady)
	}
	return s
}

// Recover brings a durable server to readiness: open the state
// directory, replay its history (snapshot then journal, each tolerant
// of a torn tail — see internal/durable), rebuild every tenant's
// registry, and flip /readyz to 200. An in-memory server (no
// StateDir) is ready from birth and Recover is a no-op. Recover fails
// only on real I/O errors — an unusable state directory is fatal,
// corruption is repaired. Until Recover returns, every state-changing
// or validating request is refused with ErrNotReady, so a load
// balancer never routes to a server that has not rehydrated.
func (s *Server) Recover() error {
	if s.cfg.StateDir == "" {
		return nil
	}
	log, recs, rst, err := durable.Open(s.cfg.StateDir)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		s.applyRecord(rec)
	}
	var specs int64
	for _, t := range s.tenantsSorted() {
		specs += int64(len(t.list()))
	}
	s.commitMu.Lock()
	s.log = log
	s.commitMu.Unlock()
	s.recoveredSpecs.Store(specs)
	s.replayedRecords.Store(int64(rst.SnapshotRecords + rst.JournalRecords))
	s.tornTruncations.Store(int64(rst.TornTruncations))
	// Recovery must not overwrite a drain that started meanwhile.
	s.state.CompareAndSwap(stateRecovering, stateReady)
	return nil
}

// applyRecord replays one journaled operation. Replay never refuses:
// a record that no longer applies (compile failure after a language
// change, a delete of a spec the snapshot already dropped) is skipped
// and counted, because a validation service that won't boot over one
// stale record is a worse failure than a missing spec. Quota checks
// are skipped too — every record passed them when it was journaled.
func (s *Server) applyRecord(rec durable.Record) {
	switch rec.Op {
	case durable.OpRegister:
		t := s.tenantForReplay(rec.Tenant)
		lres := t.lintSpec(rec.Spec, rec.Src)
		if _, _, err := t.register(rec.Spec, rec.Src, int(^uint(0)>>1), lres.Diagnostics); err != nil {
			s.replaySkipped.Add(1)
		}
	case durable.OpDelete:
		s.mu.RLock()
		t := s.tenants[rec.Tenant]
		s.mu.RUnlock()
		if t == nil {
			s.replaySkipped.Add(1)
			return
		}
		if _, err := t.delete(rec.Spec); err != nil {
			s.replaySkipped.Add(1)
		}
	default:
		s.replaySkipped.Add(1)
	}
}

// tenantForReplay creates or returns a tenant without quota or name
// checks: the record already passed both when it was journaled.
func (s *Server) tenantForReplay(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenants[name]
	if t == nil {
		t = newTenant(name, s.cfg.Runner, s.cfg.ResultCacheSize)
		s.tenants[name] = t
	}
	return t
}

// checkReady gates the state-changing and validating entry points on
// the lifecycle phase.
func (s *Server) checkReady() error {
	switch s.state.Load() {
	case stateReady:
		return nil
	case stateDraining:
		return fmt.Errorf("%w: draining", ErrNotReady)
	default:
		return fmt.Errorf("%w: recovering", ErrNotReady)
	}
}

// StartDrain moves the server to draining: /readyz flips to 503 and
// new state-changing or validating requests are refused with
// ErrNotReady, while requests already admitted run to completion.
// Call it before http.Server.Shutdown so load balancers stop routing
// while in-flight work finishes.
func (s *Server) StartDrain() {
	s.state.Store(stateDraining)
}

// Close drains the server and releases the journal. It waits for any
// in-flight durable mutation to commit (commitMu), so a registration
// that was acknowledged is on disk before Close returns.
func (s *Server) Close() error {
	s.StartDrain()
	s.commitMu.Lock()
	defer s.commitMu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Readiness reports the lifecycle phase for the readiness endpoint.
func (s *Server) Readiness() ReadyInfo {
	info := ReadyInfo{RecoveredSpecs: s.recoveredSpecs.Load()}
	switch s.state.Load() {
	case stateReady:
		info.Ready, info.State = true, "ready"
	case stateDraining:
		info.State = "draining"
	default:
		info.State = "recovering"
	}
	return info
}

// ReadyInfo is the readiness endpoint's body — deliberately tiny, a
// load balancer polls it.
type ReadyInfo struct {
	Ready bool   `json:"ready"`
	State string `json:"state"`
	// RecoveredSpecs is how many registered specs startup recovery
	// restored (durable mode only).
	RecoveredSpecs int64 `json:"recovered_specs,omitempty"`
}

// acquire implements admission control: take a validation slot
// immediately if one is free; otherwise join the bounded wait queue.
// A full queue — or a wait exceeding QueueWait — rejects with ErrBusy
// so clients shed load instead of piling up.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	release = func() { <-s.sem }
	select {
	case s.sem <- struct{}{}:
		return release, nil
	default:
	}
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.rejectedBusy.Add(1)
		return nil, ErrBusy
	}
	defer s.queued.Add(-1)
	timer := time.NewTimer(s.cfg.QueueWait)
	defer timer.Stop()
	select {
	case s.sem <- struct{}{}:
		return release, nil
	case <-timer.C:
		s.rejectedBusy.Add(1)
		return nil, ErrBusy
	case <-ctx.Done():
		// The client gave up (disconnect, deadline) while queued. Not a
		// shed — counting it under rejectedBusy would overstate server
		// pressure, and counting it nowhere made queue abandonment
		// invisible. It gets its own counter.
		s.canceledWaiting.Add(1)
		return nil, ctx.Err()
	}
}

// tenantFor returns the named tenant, creating it (within MaxTenants)
// when create is set.
func (s *Server) tenantFor(name string, create bool) (*tenant, error) {
	if !nameRE.MatchString(name) {
		s.denied.Add(1)
		return nil, fmt.Errorf("%w: tenant %q", ErrBadName, name)
	}
	s.mu.RLock()
	t := s.tenants[name]
	s.mu.RUnlock()
	if t != nil {
		return t, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: tenant %q", ErrNotFound, name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t = s.tenants[name]; t != nil {
		return t, nil
	}
	if len(s.tenants) >= s.cfg.Quotas.MaxTenants {
		s.denied.Add(1)
		return nil, fmt.Errorf("%w: tenant limit %d reached", ErrQuota, s.cfg.Quotas.MaxTenants)
	}
	t = newTenant(name, s.cfg.Runner, s.cfg.ResultCacheSize)
	s.tenants[name] = t
	return t, nil
}

// RegisterOptions modulates one registration.
type RegisterOptions struct {
	// Strict rejects the spec with a LintRejectedError when the lint
	// pass reports any error-severity diagnostic, instead of storing it
	// and returning the diagnostics as advisory.
	Strict bool
}

// RegisterSpec compiles and stores a CPL program under (tenant, name),
// creating the tenant on first use. Re-registering a name replaces its
// program. The compiled program is retained, so validate requests skip
// compilation, the program lowers its plan once and keeps it, and
// program identity is stable across requests, which keeps incremental
// splice state hot. Replacing or deleting the spec drops the program and
// its plan with it.
func (s *Server) RegisterSpec(tenantName, specName, src string) (SpecInfo, error) {
	return s.RegisterSpecWith(tenantName, specName, src, RegisterOptions{})
}

// RegisterSpecWith is RegisterSpec with per-registration options. Every
// registration runs the static-analysis pass (internal/lint) over the
// source — without a snapshot; the service lints the program, not the
// data — and returns the diagnostics in SpecInfo.Lint. With
// opts.Strict, an error-severity diagnostic rejects the registration
// outright (the previous program under the name, if any, stays
// registered). A spec that fails to compile is rejected with
// BadSpecError either way; strict mode merely reports it as a
// positioned lint diagnostic too.
func (s *Server) RegisterSpecWith(tenantName, specName, src string, opts RegisterOptions) (SpecInfo, error) {
	if err := s.checkReady(); err != nil {
		return SpecInfo{}, err
	}
	if int64(len(src)) > s.cfg.Quotas.MaxSpecBytes {
		s.denied.Add(1)
		return SpecInfo{}, fmt.Errorf("%w: spec %d bytes > limit %d", ErrTooLarge, len(src), s.cfg.Quotas.MaxSpecBytes)
	}
	t, err := s.tenantFor(tenantName, true)
	if err != nil {
		return SpecInfo{}, err
	}
	if !nameRE.MatchString(specName) {
		s.denied.Add(1)
		return SpecInfo{}, fmt.Errorf("%w: spec %q", ErrBadName, specName)
	}
	lres := t.lintSpec(specName, src)
	if opts.Strict && lres.Errors() > 0 {
		s.lintRejected.Add(1)
		return SpecInfo{}, &LintRejectedError{Diagnostics: lres.Diagnostics}
	}
	if s.durable() {
		// Durable path: apply and journal under the commit lock, so the
		// registration is journaled-or-rejected atomically — a drain or a
		// journal failure can never leave an acknowledged registration
		// that recovery would not restore.
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		if err := s.checkReady(); err != nil {
			// Drain won the race for the commit lock.
			return SpecInfo{}, err
		}
	}
	info, prev, err := t.register(specName, src, s.cfg.Quotas.MaxSpecs, lres.Diagnostics)
	if err != nil {
		if errors.Is(err, ErrQuota) {
			s.denied.Add(1)
		}
		return SpecInfo{}, err
	}
	if s.durable() {
		rec := durable.Record{Op: durable.OpRegister, Tenant: tenantName, Spec: specName, Src: src}
		if jerr := s.log.Append(rec); jerr != nil {
			// The journal did not take the operation: roll the in-memory
			// apply back so memory and disk tell the same story, and
			// refuse the registration.
			t.rollback(specName, prev)
			return SpecInfo{}, fmt.Errorf("serve: journaling registration: %w", jerr)
		}
		s.maybeCompactLocked()
	}
	return info, nil
}

// durable reports whether this server journals its mutations. Only
// valid while holding no locks that Recover takes; the log pointer is
// written once, before the server turns ready, and mutators only
// reach it past checkReady.
func (s *Server) durable() bool {
	return s.cfg.StateDir != ""
}

// maybeCompactLocked folds the journal into a snapshot once enough
// appends accumulated. Caller holds commitMu.
func (s *Server) maybeCompactLocked() {
	st := s.log.Stats()
	if st.Appends == 0 || st.Appends%int64(s.cfg.CompactEvery) != 0 {
		return
	}
	var state []durable.Record
	for _, t := range s.tenantsSorted() {
		state = append(state, t.dump()...)
	}
	// A failed compaction is not a failed registration: the journal
	// still holds every operation, so durability is intact and the next
	// threshold crossing retries.
	_ = s.log.Compact(state)
}

// ListSpecs returns the tenant's registered specs, name-sorted. Before
// recovery completes the registries are not rehydrated yet, so the
// call is refused with ErrNotReady rather than answering "no specs"
// about specs that exist.
func (s *Server) ListSpecs(tenantName string) ([]SpecInfo, error) {
	if err := s.checkReady(); err != nil {
		return nil, err
	}
	t, err := s.tenantFor(tenantName, false)
	if err != nil {
		return nil, err
	}
	return t.list(), nil
}

// DeleteSpec removes one registered spec. Like registration, a durable
// deletion is journaled-or-rejected atomically under the commit lock.
func (s *Server) DeleteSpec(tenantName, specName string) error {
	if err := s.checkReady(); err != nil {
		return err
	}
	t, err := s.tenantFor(tenantName, false)
	if err != nil {
		return err
	}
	if s.durable() {
		s.commitMu.Lock()
		defer s.commitMu.Unlock()
		if err := s.checkReady(); err != nil {
			return err
		}
	}
	removed, err := t.delete(specName)
	if err != nil {
		return err
	}
	if s.durable() {
		rec := durable.Record{Op: durable.OpDelete, Tenant: tenantName, Spec: specName}
		if jerr := s.log.Append(rec); jerr != nil {
			t.rollback(specName, removed)
			return fmt.Errorf("serve: journaling deletion: %w", jerr)
		}
		s.maybeCompactLocked()
	}
	return nil
}

// ValidateBody runs one registered spec against a request body — the
// JSON encoding of a ValidateRequest — returning the wire-format report
// plus load accounting. The run goes through the tenant's runner — the
// identical code path cvcheck uses — so a report obtained here matches
// the CLI's for the same inputs, whichever layer serves it. The body's
// chunk tree digest (address.go) is the request's one content address
// (DESIGN.md §12); the chunks equal to the spec's last body's take their
// digests from its memo, so a byte-identical repeat hashes no chunk and a
// one-value change the chunk it is in, and the decode takes their decoded
// bytes from the memo's copy of the last decode, so a one-value change
// unquotes about two chunks of its payload:
//
//  1. the result cache is looked up under it before the body is
//     decoded, so a byte-identical repeat returns the cached response
//     outright, before admission control: no decode, no run, no
//     validation slot. The key embeds the registration nonce, so
//     re-registration orphans every entry for the old program. A hit
//     skips the decoder's quota checks; the identical bytes passed them
//     when the entry was stored, and quotas are fixed per server;
//  2. on a miss, an identical body already in flight is coalesced onto
//     it (single-flight) instead of validating twice;
//  3. otherwise the request validates under admission control: the
//     payloads are parsed, the snapshot is diffed against the spec's
//     last one, and only the specs whose footprint the delta touches
//     re-run (cross-request incremental validation). A body whose bytes
//     differ from a cached one's but whose payloads are equal lands
//     here, finds no change and reuses every spec.
//
// Requests that are not pure functions of their bytes — server-side
// sources, specs with their own load commands — skip layer 2 and are
// never cached, and neither is a degraded or interrupted run.
//
// The payloads are decoded into a pooled buffer, and the buffer goes back
// to the pool when the request returns unless a run kept it: a full parse
// does, a re-parse of every payload against the loader's previous parse
// does not, and a request that never ran — refused, or answered by the
// leader it was coalesced onto — has nothing to keep.
func (s *Server) ValidateBody(ctx context.Context, tenantName, specName string, body []byte) (*ValidateResponse, error) {
	if err := s.checkReady(); err != nil {
		return nil, err
	}
	t, err := s.tenantFor(tenantName, false)
	if err != nil {
		return nil, err
	}
	entry, err := t.spec(specName)
	if err != nil {
		return nil, err
	}
	var equal [stackChunks]bool
	a := entry.addr.addressOf(body, equal[:])
	t.chunksHashed.Add(int64(a.hashed))
	t.chunksReused.Add(int64(a.reused))
	key := entry.cacheKey(a.id)
	if resp, ok := t.results.get(key); ok {
		entry.lastResp.Store(resp)
		return resp, nil
	}
	q := s.cfg.Quotas
	payloads, sources, buf, copied, err := entry.addr.decode(&a, body, q.MaxSources, q.MaxPayloadBytes)
	t.bytesReused.Add(copied)
	kept := false
	defer func() {
		if !kept {
			releasePayloads(buf)
		}
	}()
	switch {
	case errors.Is(err, ErrQuota), errors.Is(err, ErrTooLarge):
		s.denied.Add(1)
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("%w: decoding request body: %v", ErrBadRequest, err)
	}

	job := runner.Job{Prog: entry.prog, Payloads: payloads}
	for _, src := range sources {
		job.Sources = append(job.Sources, confvalley.Source{
			Name: src.Name, Format: src.Format, Scope: src.Scope,
		})
	}
	if len(sources) > 0 || len(payloads) == 0 || len(entry.prog.Loads) > 0 {
		// Not a pure function of the body's bytes: never coalesced,
		// never cached.
		var resp *ValidateResponse
		resp, kept, err = s.validate(ctx, t, entry, job)
		return resp, err
	}
	for {
		f, leader := t.results.join(key)
		if leader {
			var resp *ValidateResponse
			resp, kept, err = s.validate(ctx, t, entry, job)
			t.results.complete(key, f, resp, err, cacheableResponse(resp, err))
			return resp, err
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if cacheableResponse(f.resp, f.err) {
			entry.lastResp.Store(f.resp)
			return f.resp, nil
		}
		if ctx.Err() == nil && (interruptedResponse(f.resp) || errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			// The leader died of its own cancellation or deadline; this
			// caller is still live, so it leads a run of its own rather
			// than inherit a stranger's deadline.
			continue
		}
		return f.resp, f.err
	}
}

// validate runs one job under admission control, routing it through the
// spec's cross-request incremental lineage and accounting the outcome.
// kept reports whether the run may have kept the job's payload bytes:
// what its Result says, and true when it failed, loaded or not.
func (s *Server) validate(ctx context.Context, t *tenant, entry *specEntry, job runner.Job) (resp *ValidateResponse, kept bool, err error) {
	release, err := s.acquire(ctx)
	if err != nil {
		return nil, false, err
	}
	defer release()

	job.Prev = entry.state.Load()
	res, err := t.runner.Run(ctx, job)
	if err != nil {
		return nil, true, err
	}
	if !res.Report.Interrupted {
		entry.state.Store(res.State)
	}
	if n := res.Report.SpecsReused; n > 0 {
		t.incrementalRuns.Add(1)
		t.specsReused.Add(int64(n))
	}
	s.validations.Add(1)
	s.violations.Add(int64(len(res.Report.Violations)))
	resp = &ValidateResponse{
		Tenant:           t.name,
		Spec:             entry.name,
		Report:           res.Report.Wire(),
		Load:             res.Data,
		SpecLoads:        res.SpecLoads,
		AllSourcesFailed: res.AllSourcesFailed(),
		Code:             res.Code(),
	}
	entry.lastResp.Store(resp)
	return resp, res.PayloadsKept, nil
}

// cacheableResponse gates what the result cache may retain: only
// complete, non-degraded runs are pure functions of the request's
// content address.
func cacheableResponse(resp *ValidateResponse, err error) bool {
	if err != nil || resp == nil || resp.Report == nil || interruptedResponse(resp) {
		return false
	}
	return resp.Load == nil || !resp.Load.Degraded()
}

// interruptedResponse reports a run cut short by its context: whatever
// it says is partial, and true only of the deadline that cut it.
func interruptedResponse(resp *ValidateResponse) bool {
	if resp == nil {
		return false
	}
	return (resp.Report != nil && resp.Report.Interrupted) || (resp.Load != nil && resp.Load.Interrupted)
}

// LastReport returns the most recent ValidateResponse for one spec, or
// ErrNotFound when it has never been validated.
func (s *Server) LastReport(tenantName, specName string) (*ValidateResponse, error) {
	if err := s.checkReady(); err != nil {
		return nil, err
	}
	t, err := s.tenantFor(tenantName, false)
	if err != nil {
		return nil, err
	}
	entry, err := t.spec(specName)
	if err != nil {
		return nil, err
	}
	resp := entry.lastResp.Load()
	if resp == nil {
		return nil, fmt.Errorf("%w: spec %q has no report yet", ErrNotFound, specName)
	}
	return resp, nil
}

// Health summarizes liveness for the health endpoint, including each
// tenant's cache counters — the at-a-glance view of whether the
// caching layers are earning their memory.
func (s *Server) Health() HealthInfo {
	info := HealthInfo{
		Status:          "ok",
		State:           s.Readiness().State,
		Version:         confvalley.Version,
		SchemaVersion:   report.SchemaVersion,
		UptimeSeconds:   int64(time.Since(s.start).Seconds()),
		InFlight:        len(s.sem),
		Queued:          int(s.queued.Load()),
		CanceledWaiting: s.canceledWaiting.Load(),
	}
	for _, t := range s.tenantsSorted() {
		info.Tenants++
		info.Caches = append(info.Caches, t.cacheInfo())
	}
	return info
}

// tenantsSorted snapshots the tenant table in name order.
func (s *Server) tenantsSorted() []*tenant {
	s.mu.RLock()
	out := make([]*tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// cacheInfo assembles one tenant's cache counter block.
func (t *tenant) cacheInfo() TenantCaches {
	ps := t.runner.Session().ParseStats()
	return TenantCaches{
		Name:            t.name,
		ResultCache:     t.results.stats(),
		IncrementalRuns: t.incrementalRuns.Load(),
		SpecsReused:     t.specsReused.Load(),
		SourcesParsed:   ps.Parsed,
		SourcesReparsed: ps.Reparsed,
	}
}

// Stats aggregates the service and per-tenant counters: admission and
// quota decisions, cumulative validations, the programs lowered, and
// each tenant's current-store discovery counters plus last load
// accounting.
func (s *Server) Stats() StatsInfo {
	info := StatsInfo{
		Validations:     s.validations.Load(),
		Violations:      s.violations.Load(),
		RejectedBusy:    s.rejectedBusy.Load(),
		CanceledWaiting: s.canceledWaiting.Load(),
		QuotaDenied:     s.denied.Load(),
		LintRejected:    s.lintRejected.Load(),
		InFlight:        len(s.sem),
		Queued:          int(s.queued.Load()),
		PlansLowered:    plan.Lowerings(),
		Durability:      s.durabilityStats(),
	}
	for _, t := range s.tenantsSorted() {
		ts := TenantStats{Name: t.name, Specs: len(t.list()), Lint: t.lintCounters(), AddressStats: t.addressStats()}
		st := t.runner.Session().Store()
		ts.DiscoveryQueries = st.Stats.Queries()
		ts.DiscoveryCacheHits = st.Stats.CacheHits()
		ts.DiscoveryScanned = st.Stats.Scanned()
		if lr := t.runner.Session().LastLoadReport(); lr != nil {
			ts.SourcesLoaded = lr.Loaded()
			ts.SourcesStale = lr.Stale()
			ts.SourcesQuarantined = lr.Quarantined()
		}
		ts.Caches = t.cacheInfo()
		info.ResultCacheHits += ts.Caches.ResultCache.Hits
		info.CoalescedRequests += ts.Caches.ResultCache.Coalesced
		info.IncrementalRuns += ts.Caches.IncrementalRuns
		info.SpecsReused += ts.Caches.SpecsReused
		info.SourcesParsed += ts.Caches.SourcesParsed
		info.SourcesReparsed += ts.Caches.SourcesReparsed
		info.Lint.Findings += ts.Lint.Findings
		info.Lint.Errors += ts.Lint.Errors
		info.Lint.Warnings += ts.Lint.Warnings
		info.Lint.Infos += ts.Lint.Infos
		info.AddressStats.add(ts.AddressStats)
		info.Tenants = append(info.Tenants, ts)
	}
	return info
}

// durabilityStats assembles the stats endpoint's durability block.
func (s *Server) durabilityStats() DurabilityStats {
	ds := DurabilityStats{
		Enabled:         s.durable(),
		RecoveredSpecs:  s.recoveredSpecs.Load(),
		ReplayedRecords: s.replayedRecords.Load(),
		TornTruncations: s.tornTruncations.Load(),
		ReplaySkipped:   s.replaySkipped.Load(),
	}
	s.commitMu.Lock()
	log := s.log
	s.commitMu.Unlock()
	if log != nil {
		lst := log.Stats()
		ds.JournalRecords = lst.Appends
		ds.JournalBytes = lst.Bytes
		ds.Compactions = lst.Compactions
	}
	return ds
}

// lintCounters snapshots one tenant's registration-time lint totals,
// loading the components first so the identity holds in every snapshot.
func (t *tenant) lintCounters() LintCounters {
	c := LintCounters{
		Errors:   t.lintErrors.Load(),
		Warnings: t.lintWarnings.Load(),
		Infos:    t.lintInfos.Load(),
	}
	c.Findings = c.Errors + c.Warnings + c.Infos
	return c
}

// addressStats snapshots one tenant's content-addressing work and what
// its specs' address memos keep resident.
func (t *tenant) addressStats() AddressStats {
	a := AddressStats{ChunksHashed: t.chunksHashed.Load(), ChunksReused: t.chunksReused.Load(), BytesReused: t.bytesReused.Load()}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, entry := range t.specs {
		a.MemoBytes += entry.addr.resident()
	}
	return a
}

// HealthInfo is the health endpoint's body.
type HealthInfo struct {
	Status string `json:"status"`
	// State is the lifecycle phase (recovering/ready/draining) — the
	// same value /readyz keys its status code on; here it is advisory,
	// /healthz answers 200 for as long as the process lives.
	State         string `json:"state"`
	Version       string `json:"version"`
	SchemaVersion int    `json:"schema_version"`
	UptimeSeconds int64  `json:"uptime_seconds"`
	Tenants       int    `json:"tenants"`
	InFlight      int    `json:"in_flight"`
	Queued        int    `json:"queued"`
	// CanceledWaiting counts requests whose client canceled while they
	// waited in the admission queue — abandonment, distinct from the
	// server shedding load (rejected_busy).
	CanceledWaiting int64 `json:"canceled_waiting"`
	// Caches is each tenant's cache counter block, name-sorted.
	Caches []TenantCaches `json:"caches,omitempty"`
}

// TenantCaches is one tenant's service-side cache counters: the result
// cache (whole-response reuse plus single-flight coalescing) and the
// cross-request incremental splice accounting.
type TenantCaches struct {
	Name string `json:"name"`
	// SnapshotCache is always zero: the cache is gone and bench/trace.go
	// still reads the field; deleted with the benchmark PR (ROADMAP item 1).
	SnapshotCache SnapshotCacheStats `json:"snapshot_cache"`
	ResultCache   ResultCacheStats   `json:"result_cache"`
	// IncrementalRuns counts validations that spliced at least one
	// cached verdict; SpecsReused totals the verdicts spliced.
	IncrementalRuns int64 `json:"incremental_runs"`
	SpecsReused     int64 `json:"specs_reused"`
	// SourcesParsed and SourcesReparsed count the sources the tenant's
	// runs loaded cleanly, parsed in full or re-parsed against the
	// loader's retained parse of that source (a change inside values
	// only); together they are every source loaded cleanly.
	SourcesParsed   int64 `json:"sources_parsed"`
	SourcesReparsed int64 `json:"sources_reparsed"`
}

// SnapshotCacheStats is the counter block of the deleted snapshot
// cache, kept for TenantCaches.SnapshotCache's wire shape.
type SnapshotCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// StatsInfo is the stats endpoint's body.
type StatsInfo struct {
	Validations     int64  `json:"validations"`
	Violations      int64  `json:"violations"`
	RejectedBusy    int64  `json:"rejected_busy"`
	CanceledWaiting int64  `json:"canceled_waiting"`
	QuotaDenied     int64  `json:"quota_denied"`
	LintRejected    int64  `json:"lint_rejected"`
	InFlight        int    `json:"in_flight"`
	Queued          int    `json:"queued"`
	PlansLowered    uint64 `json:"plans_lowered"` // once per program, however often it runs

	// Cross-tenant cache totals. Validations counts runs that actually
	// executed; a result-cache hit or coalesced request never increments
	// it, so hits+coalesced+validations accounts for every request
	// admitted past the quota checks.
	ResultCacheHits   int64 `json:"result_cache_hits"`
	CoalescedRequests int64 `json:"coalesced_requests"`
	// SnapshotCacheHits is always zero; deleted with the benchmark PR,
	// like TenantCaches.SnapshotCache.
	SnapshotCacheHits int64 `json:"snapshot_cache_hits"`
	IncrementalRuns   int64 `json:"incremental_runs"`
	SpecsReused       int64 `json:"specs_reused"`
	// SourcesParsed + SourcesReparsed is every source loaded cleanly, as
	// in TenantCaches.
	SourcesParsed   int64 `json:"sources_parsed"`
	SourcesReparsed int64 `json:"sources_reparsed"`

	// Lint totals the registration-time lint diagnostics across tenants.
	Lint LintCounters `json:"lint"`

	// AddressStats totals the content-addressing counters across tenants.
	AddressStats

	// Durability is the journal/recovery counter block (zero-valued
	// with Enabled false for an in-memory server).
	Durability DurabilityStats `json:"durability"`

	Tenants []TenantStats `json:"tenants,omitempty"`
}

// DurabilityStats is the stats endpoint's durability block: what the
// journal has absorbed since this process opened it, and what startup
// recovery found.
type DurabilityStats struct {
	Enabled bool `json:"enabled"`
	// JournalRecords/JournalBytes count records fsync'd by this process;
	// Compactions counts journal→snapshot folds it performed.
	JournalRecords int64 `json:"journal_records"`
	JournalBytes   int64 `json:"journal_bytes"`
	Compactions    int64 `json:"compactions"`
	// RecoveredSpecs is the registered specs startup recovery restored;
	// ReplayedRecords the snapshot+journal records it replayed;
	// TornTruncations the files whose torn tail it cut; ReplaySkipped
	// the records replay could not apply (and ignored, by design).
	RecoveredSpecs  int64 `json:"recovered_specs"`
	ReplayedRecords int64 `json:"replayed_records"`
	TornTruncations int64 `json:"torn_truncations"`
	ReplaySkipped   int64 `json:"replay_skipped"`
}

// LintCounters counts lint diagnostics observed at spec registration.
// Findings is always Errors + Warnings + Infos — same counter-identity
// style as the admission counters (hits + coalesced + validations
// accounts for every admitted request).
type LintCounters struct {
	Findings int64 `json:"findings"`
	Errors   int64 `json:"errors"`
	Warnings int64 `json:"warnings"`
	Infos    int64 `json:"infos"`
}

// AddressStats counts the work of content addressing (DESIGN.md §12), in
// StatsInfo's top level and in each TenantStats: the body chunks hashed,
// the chunks whose digest a spec's address memo supplied (every request
// addresses each chunk of its body once, one or the other), the decoded
// payload bytes a request copied from the memo's decode instead of
// unquoting them, and the bytes the registered specs' memos keep
// resident, decoded copies included — a gauge that falls when a spec is
// deleted or re-registered.
type AddressStats struct {
	ChunksHashed int64 `json:"address_chunks_hashed"`
	ChunksReused int64 `json:"address_chunks_reused"`
	BytesReused  int64 `json:"address_bytes_reused"`
	MemoBytes    int64 `json:"address_memo_bytes"`
}

func (a *AddressStats) add(b AddressStats) {
	a.ChunksHashed += b.ChunksHashed
	a.ChunksReused += b.ChunksReused
	a.BytesReused += b.BytesReused
	a.MemoBytes += b.MemoBytes
}

// TenantStats is one tenant's counter block.
type TenantStats struct {
	Name               string `json:"name"`
	Specs              int    `json:"specs"`
	DiscoveryQueries   int64  `json:"discovery_queries"`
	DiscoveryCacheHits int64  `json:"discovery_cache_hits"`
	DiscoveryScanned   int64  `json:"discovery_scanned"`
	SourcesLoaded      int    `json:"sources_loaded"`
	SourcesStale       int    `json:"sources_stale"`
	SourcesQuarantined int    `json:"sources_quarantined"`
	// Lint counts the diagnostics this tenant's registrations drew,
	// including strict-rejected ones.
	Lint LintCounters `json:"lint"`
	// AddressStats counts this tenant's content-addressing work.
	AddressStats
	// Caches mirrors the health endpoint's per-tenant cache block so
	// either endpoint tells the full reuse story.
	Caches TenantCaches `json:"caches"`
}

// ValidateRequest is the wire body of a validate call: in-memory
// payloads and/or server-side source pointers.
type ValidateRequest struct {
	Payloads []PayloadRef `json:"payloads,omitempty"`
	Sources  []SourceRef  `json:"sources,omitempty"`
}

// PayloadRef is one in-memory configuration source in a request.
type PayloadRef struct {
	Name   string `json:"name"`
	Format string `json:"format,omitempty"`
	Scope  string `json:"scope,omitempty"`
	Data   string `json:"data"`
}

// SourceRef points at a source the *server* can reach (a file on its
// filesystem or a REST endpoint), for co-located deployments.
type SourceRef struct {
	Name   string `json:"name"`
	Format string `json:"format,omitempty"`
	Scope  string `json:"scope,omitempty"`
}

// ValidateResponse is the wire body of a completed validation.
type ValidateResponse struct {
	Tenant string `json:"tenant"`
	Spec   string `json:"spec"`
	// Report is the versioned wire report, identical to what cvcheck
	// -json emits for the same inputs.
	Report *report.Wire `json:"report"`
	// Load accounts for the request's payloads and sources.
	Load *ingest.LoadReport `json:"load,omitempty"`
	// SpecLoads accounts for load commands inside the spec itself.
	SpecLoads *ingest.LoadReport `json:"spec_loads,omitempty"`
	// AllSourcesFailed mirrors cvcheck's exit-3 condition.
	AllSourcesFailed bool `json:"all_sources_failed,omitempty"`
	// Code is the run's exit-code contract value (0 clean, 1
	// violations, 3 all sources failed), so thin clients exit with it
	// directly.
	Code int `json:"code"`
}

// SpecInfo describes one registered spec.
type SpecInfo struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"`
	// Specs is the number of specification statements in the compiled
	// program.
	Specs int `json:"specs"`
	// HasReport reports whether the spec has been validated at least
	// once (a last report is available).
	HasReport bool `json:"has_report"`
	// Lint carries the static-analysis diagnostics drawn at
	// registration — structured, positioned, advisory (an error-severity
	// entry only blocks registration under RegisterOptions.Strict).
	Lint []lint.Diagnostic `json:"lint,omitempty"`
}
