// Package runner is the reusable load→compile→validate→report core
// shared by every ConfValley front end. The orchestration that once
// lived inline in cmd/cvcheck — building a fresh store per round,
// loading data sources with graceful degradation,
// caching the compiled program across rounds, counting what each run
// did (Result.Counts, which cvserve adds up into its cumulative
// tenant counters), and folding the per-source accounting into an exit
// code — is a policy any caller of the library needs, not a CLI
// detail. cvcheck is a thin flag-parsing shell over this package, and
// cvserve drives the exact same code path per tenant, so the CLI and
// the service cannot fork behaviorally.
//
// A run makes one call into the session —
// Session.RunProgramIncremental — whatever the front end, after loading
// the job's sources with Session.LoadSources. Both start from the Job's
// Prev, the previous run's State (cvcheck -watch threads it round to
// round, cvserve keeps one per registered spec): the run is incremental
// iff it is set, and its loads re-parse against, or serve stale, the
// parses that run loaded. A job without Prev loads cold. A run's store
// is its own: Run publishes it nowhere.
package runner

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"confvalley"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
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
	// Deprecated: call refeval.Run, which this runs over unprojected loads.
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
	// under which the run's state retains its last good parse.
	Name string
	// Format is the driver name; empty infers from Name's extension.
	Format string
	// Scope optionally prefixes every key.
	Scope string
	// Data is the raw configuration bytes, lent to the runner: a full
	// parse keeps them — its instances point into them for as long as the
	// run's snapshot or state is retained — and a delta re-parse against
	// Prev's parse of the source keeps nothing of them. The caller must
	// not write to them after Run is called unless the Result says the
	// run kept none (PayloadsKept).
	// (The server decodes a request's payloads into one buffer, so one
	// retained snapshot pins all of them, and it reuses the buffer only
	// when no payload was kept.)
	Data []byte
	// Patch, when set, gives the bytes instead of Data: as an edit of the
	// bytes a full parse of this source kept in an earlier run
	// (ingest.Patch). A run whose lineage's full parse of the source kept
	// exactly Patch.Anchor — what an earlier run reported in its Anchors —
	// re-parses the windows alone; any other run materialises the bytes
	// once (ingest.Patch.Bytes). No run keeps a reference into the
	// windows' bytes, and nothing may ever write to the anchor.
	Patch *ingest.Patch
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
	// Sources are configuration sources loaded with graceful
	// degradation (file paths, REST endpoints).
	Sources []confvalley.Source
	// Payloads are in-memory configuration sources.
	Payloads []Payload
	// Prev threads a previous run's retained state into this one: when
	// it was produced by an earlier job running the *same* compiled
	// program, only the specs whose footprint overlaps the changed keys
	// re-execute and the rest splice from the retained report, and
	// whatever its program, the job's sources and the spec's load
	// commands start from the parses that run loaded. Nil runs every
	// spec over cold loads. The result's State carries this run forward.
	Prev *confvalley.RunState
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
	// PayloadsKept reports whether anything the run produced or retains
	// may point into the job's payload bytes. It is false only when every
	// payload loaded and was re-parsed against Prev's full parse of its
	// source (ingest.Outcome.Reparsed): the caller may then reuse the
	// bytes once Run returns. A job without payloads keeps none.
	PayloadsKept bool
	// Anchors holds, per payload of the job, the bytes State's parse of it
	// borrows from (RunState.Anchor): Payload.Data or a patch's bytes when
	// the run parsed the payload in full, the anchor of the lineage's full
	// parse when it re-parsed it or served it stale, nil when the state
	// keeps none. A later job's patch of the payload is re-parsed window by
	// window only when it is anchored on these very bytes.
	Anchors [][]byte
	anchors [1][]byte // Anchors' room for a one-payload job
	// Counts is what the run counted, filled once, at its end.
	Counts Counts
}

// AllSourcesFailed reports whether every source failed to load —
// nothing at all was validated. False when the run had no sources.
func (r *Result) AllSourcesFailed() bool {
	c := r.Counts
	return c.Quarantined > 0 && c.Parsed+c.Reparsed+c.Stale == 0
}

// Counts is what one run counted (Result.Counts), or the sum of several
// runs' (Add). Runs is 1 for one run. Parsed, Reparsed, Stale and
// Quarantined count the outcomes of its loads — Data, then SpecLoads —
// by kind: parsed in full, re-parsed against the lineage's last parse,
// failed and served stale, failed and quarantined. SpecsReused counts
// the verdicts it spliced, and IncrementalRuns is 1 when there were
// any. The Discovery fields are its store's config.DiscoveryStats; a
// spliced spec does not run, so it discovers nothing.
type Counts struct {
	Runs, Parsed, Reparsed, Stale, Quarantined             int64
	SpecsReused, IncrementalRuns, Violations               int64
	DiscoveryQueries, DiscoveryCacheHits, DiscoveryScanned int64
}

// Add adds o to c.
func (c *Counts) Add(o Counts) {
	c.Runs += o.Runs
	c.Parsed += o.Parsed
	c.Reparsed += o.Reparsed
	c.Stale += o.Stale
	c.Quarantined += o.Quarantined
	c.SpecsReused += o.SpecsReused
	c.IncrementalRuns += o.IncrementalRuns
	c.Violations += o.Violations
	c.DiscoveryQueries += o.DiscoveryQueries
	c.DiscoveryCacheHits += o.DiscoveryCacheHits
	c.DiscoveryScanned += o.DiscoveryScanned
}

// count fills the result's Counts from the run: its load reports, its
// report, and its store's discovery counters, read after validation.
func (r *Result) count(st *confvalley.Store) {
	c := Counts{Runs: 1, Violations: int64(len(r.Report.Violations))}
	for _, rep := range []*confvalley.LoadReport{r.Data, r.SpecLoads} {
		if rep == nil {
			continue
		}
		for _, o := range rep.Outcomes {
			switch {
			case o.Err == "" && o.Reparsed:
				c.Reparsed++
			case o.Err == "":
				c.Parsed++
			case o.Stale:
				c.Stale++
			default:
				c.Quarantined++
			}
		}
	}
	if n := r.Report.SpecsReused; n > 0 {
		c.SpecsReused, c.IncrementalRuns = int64(n), 1
	}
	c.DiscoveryQueries = st.Stats.Queries()
	c.DiscoveryCacheHits = st.Stats.CacheHits()
	c.DiscoveryScanned = st.Stats.Scanned()
	r.Counts = c
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

// Runner is a persistent validation pipeline: one session and one
// compiled-program cache, reused across runs so watch rounds and service
// requests skip recompilation. What a run inherits from the one before —
// verdicts to splice, parses to re-parse against or serve stale — travels
// in Job.Prev, not in the Runner. A Runner is safe for concurrent Run
// calls: each run builds and validates a private store, which it
// publishes nowhere, and reports what it counted in its Result.
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
	s.Options = engine.Options{Parallel: opts.Parallel, StopOnFirst: opts.StopOnFirst, Interpret: opts.Interpret}
	s.Degrade = true
	s.MaxStale = opts.MaxStale
	s.SpecDir = opts.SpecDir
	if opts.Env != nil {
		s.SetEnv(opts.Env)
	}
	return &Runner{opts: opts, session: s}
}

// Session exposes the underlying session: its options, compiler and
// include resolver. A run's store is not the session's (Run publishes
// none), and its counts are on its Result.
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
// sealed snapshot, and count what the run did into Result.Counts. The
// store is the run's alone, so concurrent runs each see exactly the
// data they loaded, and it is retained only through Result.State.
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
	sources := r.ingestSources(job, proj)
	dataRep, state := r.session.LoadSources(ctx, st, sources, job.Prev)
	res := &Result{Data: dataRep, Program: prog, PayloadsKept: payloadsKept(job, dataRep)}
	if linted {
		res.Diagnostics = r.lintSpec(job, src, st)
		for _, d := range res.Diagnostics {
			if d.Severity == lint.Error {
				return nil, &SpecError{Err: &LintError{Diagnostics: res.Diagnostics}}
			}
		}
	}
	var err error
	res.Report, res.SpecLoads, res.State, err = r.session.RunProgramIncremental(ctx, prog, st, &state)
	if err != nil {
		return nil, err
	}
	if res.Report.Interrupted {
		res.State = job.Prev // this run's parses too seed nothing
	}
	if len(job.Payloads) > 0 {
		res.Anchors = res.anchors[:0]
		if len(job.Payloads) > len(res.anchors) {
			res.Anchors = make([][]byte, 0, len(job.Payloads))
		}
		res.Anchors = res.Anchors[:len(job.Payloads)]
		for i, src := range sources[len(job.Sources):] {
			res.Anchors[i] = res.State.Anchor(src)
		}
	}
	res.count(st)
	return res, nil
}

// payloadsKept reports whether the load of job may have kept any of its
// payloads' bytes: unless each payload has an outcome, and it says the
// source was re-parsed, it may have. Payloads load after the job's
// sources (ingestSources), so theirs are the report's last outcomes.
func payloadsKept(job Job, rep *confvalley.LoadReport) bool {
	if len(job.Payloads) == 0 {
		return false
	}
	if rep == nil || len(rep.Outcomes) != len(job.Sources)+len(job.Payloads) {
		return true
	}
	for _, o := range rep.Outcomes[len(job.Sources):] {
		if !o.Reparsed {
			return true
		}
	}
	return false
}

// lintSpec runs the analyzers over the job's specification source with
// the freshly loaded store as the drift snapshot, resolving includes as
// the compile does.
func (r *Runner) lintSpec(job Job, src string, st *confvalley.Store) []lint.Diagnostic {
	name := job.SpecPath
	if name == "" {
		name = "<spec>"
	}
	return lint.Run(name, src, lint.Options{Snapshot: st, Resolver: r.session.ResolveInclude}).Diagnostics
}

// HashPayloads returns the content address of a payload set, or "" for
// an empty one. The driver name is normalized through the same
// extension inference loading uses, so an explicit format and an
// inferred identical one share an address. Only the benchmark's trace
// calls it: a validate request is addressed by its body's chunk tree
// digest (DESIGN.md §12), and no store carries an address. It hashes
// Data, so a patched payload, which has none, is refused.
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
		if p.Patch != nil {
			panic("runner: HashPayloads of a patched payload")
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
// payloads into one batch, payloads last so their accounting
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
			Patch:      p.Patch,
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
