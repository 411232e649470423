// Package runner is the reusable load→compile→validate→report core
// shared by every ConfValley front end. The orchestration that once
// lived inline in cmd/cvcheck — building a fresh store per round,
// loading data sources through the graceful-degradation loader,
// caching the compiled program across rounds, swapping the store in
// atomically, and folding the per-source accounting into an exit
// code — is a policy any caller of the library needs, not a CLI
// detail. cvcheck is a thin flag-parsing shell over this package, and
// cvserve drives the exact same code path per tenant, so the CLI and
// the service cannot fork behaviorally.
//
// A run makes one call into the session —
// Session.RunProgramIncremental — whatever the front end: it is
// incremental iff the Job carries the previous run's State as Prev
// (cvcheck -watch threads it round to round, cvserve keeps one per
// registered spec), and job sources load through the session's one
// graceful-degradation loader, the same one a spec's own load commands
// use.
package runner

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"confvalley"
	"confvalley/internal/driver"
	"confvalley/internal/ingest"
	"confvalley/internal/lint"
	"confvalley/internal/plan"
)

// Options configures a Runner; the fields mirror cvcheck's flags. The
// zero value is a runner with no load timeout that validates with one
// worker per hardware thread. Two things are decisions, not options:
// loading always degrades gracefully (a failing source is quarantined
// or served stale, never fatal), and a run is incremental iff its Job
// carries a Prev.
type Options struct {
	// Parallel sets the validation worker count: 0 or negative uses one
	// worker per hardware thread, 1 forces sequential execution, and
	// N > 1 uses exactly N workers (always clamped to the spec count).
	Parallel int
	// StopOnFirst aborts validation at the first violation.
	StopOnFirst bool
	// Interpret selects the AST interpreter over lowered plans.
	Interpret bool
	// MaxStale bounds how many consecutive rounds a failing source is
	// served from its last good parse (0 = forever, negative = never).
	MaxStale int
	// LoadTimeout bounds each run (loading plus validation); 0 = none.
	LoadTimeout time.Duration
	// SpecDir resolves relative include paths.
	SpecDir string
	// Env answers dynamic predicate queries; nil keeps the session's
	// default simulated environment.
	Env confvalley.Env
	// Lint runs the static-analysis passes (internal/lint) over the
	// specification source before validating, with the job's loaded
	// store as the drift snapshot. Diagnostics land on Result; a spec
	// with error-severity findings is rejected with a SpecError
	// wrapping a *LintError — the same contract as a compile failure.
	Lint bool
}

// Payload is one in-memory configuration source — the shape a service
// request carries configuration in, where there is no local file.
type Payload struct {
	// Name is the provenance recorded on every instance and the key
	// under which the loader retains last-good parses.
	Name string
	// Format is the driver name; empty infers from Name's extension.
	Format string
	// Scope optionally prefixes every key.
	Scope string
	// Data is the raw configuration bytes, handed over to the runner:
	// the instances parsed from them may point into them for as long as
	// the run's snapshot is retained, so the caller must not write to
	// them after Run is called. (The server decodes a request's payloads
	// into one buffer, so one retained snapshot pins all of them.)
	Data []byte
}

// Job is one validation request: a specification (by path, source
// text, or pre-compiled program — exactly one) plus the configuration
// to validate (file/REST sources, in-memory payloads, or both).
type Job struct {
	// SpecPath compiles the CPL file at this path.
	SpecPath string
	// SpecSrc compiles this CPL source directly.
	SpecSrc string
	// Prog runs an already-compiled program (a service's registered
	// spec). Takes precedence over SpecPath and SpecSrc.
	Prog *confvalley.Program
	// Sources are configuration sources loaded by the degradation
	// loader (file paths, REST endpoints).
	Sources []confvalley.Source
	// Payloads are in-memory configuration sources.
	Payloads []Payload
	// Prev threads a previous run's retained state into this one: when
	// it was produced by an earlier job running the *same* compiled
	// program, only the specs whose footprint overlaps the changed keys
	// re-execute and the rest splice from the retained report. Nil runs
	// every spec. The result's State carries this run forward.
	Prev *confvalley.RunState
	// ContentID is a digest that determines the payload bytes; the
	// service passes its request body's sha256. A job that carries it,
	// no Sources, and a program without load commands has its store
	// sealed under that address once it loads cleanly, so a Prev derived
	// from the same bytes diffs in O(1).
	ContentID string
}

// Result is one completed run: the validation report plus the load
// accounting the exit-code and rendering policy is derived from.
type Result struct {
	// Report is the validation outcome.
	Report *confvalley.Report
	// Data accounts for the job's Sources and Payloads; nil when the
	// job carried none.
	Data *confvalley.LoadReport
	// SpecLoads accounts for load commands inside the specification
	// itself; nil when it has none.
	SpecLoads *confvalley.LoadReport
	// Program is the compiled program the run executed — callers reuse
	// it to skip recompilation, and tests compare identity.
	Program *confvalley.Program
	// State is the run's retained incremental state for a future job's
	// Prev; unchanged from Prev when the run was interrupted.
	State *confvalley.RunState
	// Diagnostics are the lint findings for the job's specification
	// source; populated only under Options.Lint for jobs that carry
	// spec source (not a pre-compiled program).
	Diagnostics []lint.Diagnostic
}

// SourcesTotal counts every configuration source the run examined.
func (r *Result) SourcesTotal() int {
	n := 0
	if r.Data != nil {
		n += len(r.Data.Outcomes)
	}
	if r.SpecLoads != nil {
		n += len(r.SpecLoads.Outcomes)
	}
	return n
}

// SourcesQuarantined counts sources that contributed nothing.
func (r *Result) SourcesQuarantined() int {
	n := 0
	if r.Data != nil {
		n += r.Data.Quarantined()
	}
	if r.SpecLoads != nil {
		n += r.SpecLoads.Quarantined()
	}
	return n
}

// AllSourcesFailed reports whether every source failed to load —
// nothing at all was validated. False when the run had no sources.
func (r *Result) AllSourcesFailed() bool {
	t := r.SourcesTotal()
	return t > 0 && r.SourcesQuarantined() == t
}

// Code maps the result onto the documented exit-code contract shared
// by cvcheck and cvcall: 0 clean, 1 violations or spec errors, 3 every
// source failed. (2 — usage/compile errors — never reaches a Result;
// those surface as errors from Run.)
func (r *Result) Code() int {
	switch {
	case r.AllSourcesFailed():
		return 3
	case r.Report.Passed():
		return 0
	default:
		return 1
	}
}

// SpecError marks a failure to read or compile the specification — the
// caller's input is at fault, not the configuration data. cvcheck maps
// it to exit 2 and cvserve to HTTP 400.
type SpecError struct{ Err error }

func (e *SpecError) Error() string { return e.Err.Error() }
func (e *SpecError) Unwrap() error { return e.Err }

// LintError rejects a specification whose lint run produced
// error-severity diagnostics; it carries the full diagnostic list so
// front ends can render every finding, not just the first.
type LintError struct{ Diagnostics []lint.Diagnostic }

func (e *LintError) Error() string {
	errs := 0
	first := ""
	for _, d := range e.Diagnostics {
		if d.Severity == lint.Error {
			errs++
			if first == "" {
				first = d.String()
			}
		}
	}
	return fmt.Sprintf("specification failed lint with %d error(s); first: %s", errs, first)
}

// Runner is a persistent validation pipeline: one session (and with it
// one graceful-degradation loader) and one compiled-program cache, reused
// across runs so watch rounds and service requests skip recompilation
// and serve stale data across failures. A Runner is safe for
// concurrent Run calls: each run builds and validates a private store,
// and the published session store is only ever swapped whole.
type Runner struct {
	opts    Options
	session *confvalley.Session

	// mu guards the compiled-program cache. Program identity matters
	// beyond speed: a program owns its lowered plan, and incremental
	// splice state is keyed on it, so rounds that re-read identical spec
	// text must get the identical *Program back.
	mu       sync.Mutex
	lastSrc  string
	lastProg *confvalley.Program
}

// New returns a Runner over a fresh session configured by opts.
func New(opts Options) *Runner {
	s := confvalley.NewSession()
	s.Parallel = opts.Parallel
	s.StopOnFirst = opts.StopOnFirst
	s.Interpret = opts.Interpret
	s.Degrade = true
	s.MaxStale = opts.MaxStale
	s.SpecDir = opts.SpecDir
	if opts.Env != nil {
		s.SetEnv(opts.Env)
	}
	return &Runner{opts: opts, session: s}
}

// Session exposes the underlying session (stats, stores, inference).
func (r *Runner) Session() *confvalley.Session { return r.session }

// Compile compiles CPL source through the runner's program cache:
// identical source returns the identical *Program, so plan lowering
// and incremental state survive across rounds.
func (r *Runner) Compile(src string) (*confvalley.Program, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastProg != nil && src == r.lastSrc {
		return r.lastProg, nil
	}
	prog, err := r.session.Compile(src)
	if err != nil {
		return nil, &SpecError{Err: err}
	}
	r.lastSrc, r.lastProg = src, prog
	return prog, nil
}

// Run executes one job: load the job's sources and payloads into a
// fresh store, resolve the program, validate against that store's
// sealed snapshot, and publish the store to the session. The store is
// swapped in *before* validation (matching cvcheck's historical
// ordering) but validation pins the job's own store explicitly, so
// concurrent runs each see exactly the data they loaded no matter how
// the swaps interleave.
func (r *Runner) Run(ctx context.Context, job Job) (*Result, error) {
	if r.opts.LoadTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.opts.LoadTimeout)
		defer cancel()
	}

	prog := job.Prog
	src, haveSrc := "", false
	if prog == nil {
		src = job.SpecSrc
		if job.SpecPath != "" {
			b, err := os.ReadFile(job.SpecPath)
			if err != nil {
				return nil, &SpecError{Err: err}
			}
			src = string(b)
		}
		haveSrc = true
		var err error
		if prog, err = r.Compile(src); err != nil {
			return nil, err
		}
	}

	linted := r.opts.Lint && haveSrc
	proj := r.projection(prog, linted)
	st := confvalley.NewStore()
	var dataRep *confvalley.LoadReport
	if sources := r.ingestSources(job, proj); len(sources) > 0 {
		dataRep = r.session.LoadSources(ctx, st, sources)
	}
	// A store is a function of the job's content address only when its
	// configuration is carried entirely in payload bytes — no file/REST
	// sources (same name, new content tomorrow), no spec-driven loads
	// appending mid-run — and the parse was clean and complete: a
	// degraded outcome depends on the loader's last-good history and an
	// interrupted one is missing sources. A projected store lacks
	// classes the bytes hold, but only ones no spec of the program reads,
	// and the address is only ever compared within one program's lineage.
	if job.ContentID != "" && len(job.Sources) == 0 && len(job.Payloads) > 0 && len(prog.Loads) == 0 &&
		!dataRep.Interrupted && !dataRep.Degraded() {
		st.SetContentID(job.ContentID)
	}

	r.session.SwapStore(st)
	res := &Result{Data: dataRep, Program: prog}
	if linted {
		res.Diagnostics = r.lintSpec(job, src, st)
		for _, d := range res.Diagnostics {
			if d.Severity == lint.Error {
				return nil, &SpecError{Err: &LintError{Diagnostics: res.Diagnostics}}
			}
		}
	}
	var err error
	res.Report, res.SpecLoads, res.State, err = r.session.RunProgramIncremental(ctx, prog, st, job.Prev)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// lintSpec runs the analyzers over the job's specification source with
// the freshly loaded store as the drift snapshot.
func (r *Runner) lintSpec(job Job, src string, st *confvalley.Store) []lint.Diagnostic {
	name := job.SpecPath
	if name == "" {
		name = "<spec>"
	}
	opts := lint.Options{Snapshot: st}
	if r.opts.SpecDir != "" {
		dir := r.opts.SpecDir
		opts.Resolver = func(path string) (string, error) {
			b, err := os.ReadFile(filepath.Join(dir, path))
			return string(b), err
		}
	}
	return lint.Run(name, src, opts).Diagnostics
}

// HashPayloads returns the content address of a payload set, or "" for
// an empty one. The driver name is normalized through the same
// extension inference loading uses, so an explicit format and an
// inferred identical one share an address. The service does not call
// it: a validate request is addressed by its body's sha256 (DESIGN.md
// §12), and only the benchmark's trace and tests hash payloads.
func HashPayloads(ps []Payload) string {
	if len(ps) == 0 {
		return ""
	}
	ds := make([]string, len(ps))
	for i, p := range ps {
		format := p.Format
		if format == "" {
			format = ingest.FormatFromPath(p.Name)
		}
		ds[i] = ingest.SourceDigest(p.Name, format, p.Scope, p.Data)
	}
	return ingest.CombineDigests(ds)
}

// projection returns the class filter the job's sources load through:
// the program's (plan.Plan.Projection), nil when something reads the
// whole store. The reference interpreter stays unprojected, as an
// oracle, and lint's corpus drift reads every class.
func (r *Runner) projection(prog *confvalley.Program, linted bool) *driver.Projection {
	if r.opts.Interpret || linted {
		return nil
	}
	return plan.For(prog).Projection
}

// ingestSources merges the job's file/REST sources and in-memory
// payloads into one loader batch, payloads last so their accounting
// renders after the flag-ordered sources, matching cvcheck output. Every
// source loads through proj.
func (r *Runner) ingestSources(job Job, proj *driver.Projection) []confvalley.Source {
	out := make([]confvalley.Source, 0, len(job.Sources)+len(job.Payloads))
	for _, src := range job.Sources {
		src.Projection = proj
		out = append(out, src)
	}
	for _, p := range job.Payloads {
		data := p.Data
		out = append(out, confvalley.Source{
			Name:       p.Name,
			Format:     p.Format,
			Scope:      p.Scope,
			Fetch:      func(context.Context) ([]byte, error) { return data, nil },
			Projection: proj,
		})
	}
	return out
}

// ParseSourceArg parses a CLI source argument of the form
// format:path[:scope] — the -data flag syntax shared by cvcheck and
// cvcall. Paths may contain colons on Windows-style shares, so the
// format is taken from the first colon and the scope from the last
// only when it looks like a scope (no slashes or dots).
func ParseSourceArg(arg string) (confvalley.Source, error) {
	i := strings.IndexByte(arg, ':')
	if i <= 0 {
		return confvalley.Source{}, fmt.Errorf("bad source %q; want format:path[:scope]", arg)
	}
	format, rest := arg[:i], arg[i+1:]
	if j := strings.LastIndexByte(rest, ':'); j > 0 {
		tail := rest[j+1:]
		if tail != "" && !strings.ContainsAny(tail, `/\.`) {
			return confvalley.Source{Name: rest[:j], Format: format, Scope: tail}, nil
		}
	}
	return confvalley.Source{Name: rest, Format: format}, nil
}
