package serve

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"confvalley"
	"confvalley/internal/durable"
	"confvalley/internal/lint"
	"confvalley/internal/runner"
)

// tenant is one isolated customer of the service: its own spec-program
// registry and its own runner (hence its own session, store lineage,
// degradation loader and plan/incremental state), plus its own result
// cache. Nothing a tenant registers or validates is
// visible to another tenant — isolation is structural, not checked, and
// that extends to every cache layer.
type tenant struct {
	name    string
	runner  *runner.Runner
	results *resultCache

	// Incremental accounting: requests that spliced at least one cached
	// verdict, and the total verdicts spliced.
	incrementalRuns atomic.Int64
	specsReused     atomic.Int64

	// Registration-time lint accounting, by severity; strict-rejected
	// registrations count too (the diagnostics were observed either way).
	lintErrors   atomic.Int64
	lintWarnings atomic.Int64
	lintInfos    atomic.Int64

	// Content addressing: body chunks hashed, chunks whose digest a
	// spec's address memo supplied, and decoded bytes copied from a memo
	// (AddressStats).
	chunksHashed atomic.Int64
	chunksReused atomic.Int64
	bytesReused  atomic.Int64

	mu    sync.RWMutex
	specs map[string]*specEntry
}

// specEntry is one registered spec program plus its last validation.
type specEntry struct {
	name  string
	src   string
	prog  *confvalley.Program
	diags []lint.Diagnostic
	// id is a process-unique registration nonce. Result-cache keys
	// embed it, so re-registering a name strictly invalidates: entries
	// and in-flight validations for the old program keep the old nonce
	// and can never be served against the new one.
	id uint64
	// state is the spec's cross-request incremental lineage: the last
	// completed run's (program, snapshot, report), diffed against each
	// new request's snapshot to splice unchanged verdicts. Immutable
	// values behind an atomic pointer; concurrent runs race benignly
	// (last completed writer wins).
	state atomic.Pointer[confvalley.RunState]
	// lastResp retains the most recent validate response; readers get
	// it lock-free from the report endpoint.
	lastResp atomic.Pointer[ValidateResponse]
	// addr is the registration's content-address memo: a copy of the
	// last body validated under it, its chunk digests and a decode, which
	// the next body's equal chunks reuse (address.go). It dies with the
	// entry.
	addr addressMemo
}

// specIDs issues registration nonces across all tenants.
var specIDs atomic.Uint64

func newTenant(name string, opts runner.Options, resultCacheSize int) *tenant {
	return &tenant{
		name:    name,
		runner:  runner.New(opts),
		results: newResultCache(resultCacheSize),
		specs:   make(map[string]*specEntry),
	}
}

// lintSpec lints a spec source the way the tenant compiles it, with its
// session's include resolver, and counts the findings.
func (t *tenant) lintSpec(name, src string) lint.Result {
	res := lint.Run(name, src, lint.Options{Resolver: t.runner.Session().ResolveInclude})
	le, lw, li := res.Counts()
	t.lintErrors.Add(int64(le))
	t.lintWarnings.Add(int64(lw))
	t.lintInfos.Add(int64(li))
	return res
}

// register compiles and stores a spec under name, replacing any
// previous program registered there. Replacement invalidates every
// cache keyed to the old registration: the fresh entry carries a new
// nonce and empty incremental state, the old cached responses are
// purged, and the old program goes, its lowered plan with it. The replaced
// entry (nil on first registration) comes back so a durable caller whose
// journal append fails can roll the apply back.
func (t *tenant) register(name, src string, maxSpecs int, diags []lint.Diagnostic) (SpecInfo, *specEntry, error) {
	prog, err := t.runner.Session().Compile(src)
	if err != nil {
		return SpecInfo{}, nil, &BadSpecError{Err: err}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	prev, exists := t.specs[name]
	if !exists && len(t.specs) >= maxSpecs {
		return SpecInfo{}, nil, fmt.Errorf("%w: tenant %q spec limit %d reached", ErrQuota, t.name, maxSpecs)
	}
	entry := &specEntry{name: name, src: src, prog: prog, diags: diags, id: specIDs.Add(1)}
	t.specs[name] = entry
	t.results.purge(name + keySep)
	return entry.info(), prev, nil
}

// rollback undoes one apply whose journal append failed: restore the
// replaced entry (or remove the name when there was none) and purge
// the caches again, so nothing keyed to the rolled-back registration
// survives.
func (t *tenant) rollback(name string, prev *specEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev == nil {
		delete(t.specs, name)
	} else {
		t.specs[name] = prev
	}
	t.results.purge(name + keySep)
}

// spec returns one registered entry.
func (t *tenant) spec(name string) (*specEntry, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	entry := t.specs[name]
	if entry == nil {
		return nil, fmt.Errorf("%w: spec %q", ErrNotFound, name)
	}
	return entry, nil
}

// list returns the registry name-sorted.
func (t *tenant) list() []SpecInfo {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]SpecInfo, 0, len(t.specs))
	for _, entry := range t.specs {
		out = append(out, entry.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// delete removes one registered spec and its cached responses,
// returning the removed entry for durable rollback.
func (t *tenant) delete(name string) (*specEntry, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	entry, ok := t.specs[name]
	if !ok {
		return nil, fmt.Errorf("%w: spec %q", ErrNotFound, name)
	}
	delete(t.specs, name)
	t.results.purge(name + keySep)
	return entry, nil
}

// dump snapshots the registry as the register records a journal
// compaction persists, name-sorted for deterministic snapshots.
func (t *tenant) dump() []durable.Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]durable.Record, 0, len(t.specs))
	for _, entry := range t.specs {
		out = append(out, durable.Record{
			Op: durable.OpRegister, Tenant: t.name, Spec: entry.name, Src: entry.src,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec < out[j].Spec })
	return out
}

// keySep separates result-cache key components; spec names cannot
// contain it (nameRE).
const keySep = "\x00"

// cacheKey builds the result-cache key for one request's content
// address (its body's chunk tree digest, address.go) under this
// registration.
func (e *specEntry) cacheKey(contentID string) string {
	return e.name + keySep + strconv.FormatUint(e.id, 10) + keySep + contentID
}

func (e *specEntry) info() SpecInfo {
	return SpecInfo{
		Name:      e.name,
		Bytes:     len(e.src),
		Specs:     len(e.prog.Specs),
		HasReport: e.lastResp.Load() != nil,
		Lint:      e.diags,
	}
}
