package confvalley

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/driver"
	"confvalley/internal/engine"
	"confvalley/internal/infer"
	"confvalley/internal/ingest"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// Session is a validation session: configuration sources loaded into the
// unified representation, plus the environment and options validation
// runs under. It supports the three usage scenarios of §5.1 — batch
// validation, interactive one-liners, and editor-style instant checks —
// through Validate, Check and ValidateProgram.
//
// Option fields and registrations are not safe for concurrent mutation,
// but validation may overlap with SwapStore: each run pins the store's
// sealed snapshot at start, and the engine parallelizes internally
// (one worker per hardware thread unless Parallel says otherwise).
type Session struct {
	store atomic.Pointer[config.Store]
	env   simenv.Env

	// Parallel sets the validation worker count: 0 or negative uses one
	// worker per hardware thread, 1 forces sequential execution, and
	// N > 1 uses exactly N workers (always clamped to the spec count).
	Parallel int
	// StopOnFirst aborts validation at the first violation.
	StopOnFirst bool
	// Deprecated: only internal/runner sets it, for its own Interpret.
	Interpret bool
	// SpecDir resolves relative include paths; defaults to the working
	// directory.
	SpecDir string
	// Degrade switches the program's load commands to graceful
	// degradation: a malformed or unreachable source is quarantined (or
	// served from its last good parse, within MaxStale rounds) instead
	// of aborting validation, with the per-source accounting retained in
	// LastLoadReport. Without it, the first load failure aborts — the
	// strict historical behavior.
	Degrade bool
	// MaxStale bounds how many consecutive rounds a failing source may
	// be served from its last good parse under Degrade; 0 = forever,
	// negative = never serve stale. Set it before the first validation.
	MaxStale int

	// registered in-memory spec files for hermetic includes.
	includes map[string]string
	// registered in-memory data sources for hermetic loads.
	sources map[string][]byte

	// dataLoader retains last-good parses across LoadSources calls and
	// specLoader across Degrade-mode load commands; each is lazily built
	// with the session's MaxStale. A loader keeps its latest batch's
	// parses only, so the two kinds of batch, which alternate in a runner
	// round, each have their own.
	dataLoader, specLoader atomic.Pointer[ingest.Loader]
	// loadRep retains the most recent Degrade-mode load report.
	loadRep atomic.Pointer[ingest.LoadReport]
}

// NewSession returns an empty session with a simulated environment.
func NewSession() *Session {
	s := &Session{
		env:      simenv.NewSim(),
		includes: make(map[string]string),
		sources:  make(map[string][]byte),
	}
	s.store.Store(config.NewStore())
	return s
}

// Store exposes the unified configuration representation.
func (s *Session) Store() *config.Store { return s.store.Load() }

// SwapStore atomically replaces the session's configuration store and
// returns the previous one. Validations already in flight pinned the
// old store's snapshot when they started and finish against it
// undisturbed; runs that start after the swap see the new store.
// cvcheck's watch mode uses this to swap in a freshly loaded store when
// data files change instead of mutating a live one.
func (s *Session) SwapStore(st *config.Store) *config.Store {
	return s.store.Swap(st)
}

// SetEnv replaces the environment used by dynamic predicates.
func (s *Session) SetEnv(env Env) { s.env = env }

// Env returns the current environment.
func (s *Session) Env() Env { return s.env }

// LoadData parses raw configuration bytes with the named driver and adds
// the instances, optionally prefixed with a scope.
func (s *Session) LoadData(format string, data []byte, sourceName, scope string) (int, error) {
	return driver.LoadInto(s.store.Load(), format, data, sourceName, scope)
}

// LoadFile reads a configuration file from disk and loads it. The format
// defaults from the file extension when empty.
func (s *Session) LoadFile(format, path, scope string) (int, error) {
	return LoadFileInto(s.store.Load(), format, path, scope)
}

// LoadFileInto reads a configuration file from disk and loads it into an
// arbitrary store, without touching any session. The format defaults
// from the file extension when empty. Watch-style callers use it to
// build a fresh store off to the side and SwapStore it in atomically.
func LoadFileInto(st *config.Store, format, path, scope string) (int, error) {
	if format == "" {
		format = FormatFromPath(path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("confvalley: reading %s: %w", path, err)
	}
	return driver.LoadInto(st, format, data, path, scope)
}

// RegisterSource installs an in-memory data source that CPL load commands
// can reference by name, keeping sessions hermetic (the rest driver's
// endpoint registry serves the same purpose for REST loads). The session
// keeps a copy, which every load of the source hands to the loader as
// bytes nobody writes again; data stays the caller's.
func (s *Session) RegisterSource(name string, data []byte) {
	s.sources[name] = bytes.Clone(data)
}

// RegisterInclude installs an in-memory specification file for CPL
// include commands.
func (s *Session) RegisterInclude(name, src string) {
	s.includes[name] = src
}

// FormatFromPath guesses a driver name from a file extension.
func FormatFromPath(path string) string { return ingest.FormatFromPath(path) }

// Compile parses and compiles CPL source, resolving includes with
// ResolveInclude.
func (s *Session) Compile(src string) (*Program, error) {
	return compiler.CompileWith(src, compiler.Options{
		Optimize: true,
		Resolver: s.ResolveInclude,
	})
}

// ResolveInclude returns the source of the file a CPL include command
// names: a registered in-memory file first, then ReadInclude under
// SpecDir. Compile resolves includes with it; a linter handed it reads
// the same files, so lint and compile never disagree about an include.
func (s *Session) ResolveInclude(path string) (string, error) {
	if src, ok := s.includes[path]; ok {
		return src, nil
	}
	return ReadInclude(s.SpecDir, path)
}

// ReadInclude reads an included specification file from disk: an
// absolute path as it is, a relative one under dir (the working
// directory when dir is empty).
func ReadInclude(dir, path string) (string, error) {
	if dir != "" && !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

// ValidateProgram executes a compiled program: load commands first (from
// registered sources or disk), then every specification.
func (s *Session) ValidateProgram(prog *Program) (*Report, error) {
	return s.ValidateProgramContext(context.Background(), prog)
}

// ValidateProgramContext is ValidateProgram under a caller-supplied
// context: a deadline or cancellation stops loading between sources and
// validation between specifications, returning the partial report marked
// Interrupted. With Degrade set, per-source load failures quarantine (or
// serve last-good stale data) instead of aborting; the load accounting
// lands in LastLoadReport.
func (s *Session) ValidateProgramContext(ctx context.Context, prog *Program) (*Report, error) {
	rep, _, err := s.RunProgram(ctx, prog, s.store.Load())
	return rep, err
}

// RunProgram validates a compiled program against an explicit store, in
// full: RunProgramIncremental with no previous state, its returned state
// dropped. ValidateProgramContext is RunProgram on the session's current
// store.
func (s *Session) RunProgram(ctx context.Context, prog *Program, st *Store) (*Report, *LoadReport, error) {
	rep, specLoads, _, err := s.RunProgramIncremental(ctx, prog, st, nil)
	return rep, specLoads, err
}

// RunState is one completed validation run's retained (program,
// snapshot, report) triple — the one incremental lineage type. A caller
// threads the state RunProgramIncremental returns into its next call;
// callers with several lineages (a multi-tenant service keeps one per
// registered spec) hold several states against one session. A RunState
// is immutable; sharing one across concurrent runs is safe.
type RunState struct {
	prog *compiler.Program
	snap *config.Snapshot
	rep  *report.Report
}

// Report returns the state's retained validation report.
func (rs *RunState) Report() *Report {
	if rs == nil {
		return nil
	}
	return rs.rep
}

// RunProgramIncremental is the one entry every validation goes through:
// it executes the compiled program's load commands into an explicit
// store, validates against that store's sealed snapshot, and returns the
// report, the per-source accounting of the program's own load commands
// (nil when the program has none or Degrade is off) and the run's state.
// Because the store is an argument rather than the session field,
// concurrent callers validating different stores never contaminate each
// other: each run pins the snapshot of exactly the store it was handed,
// no matter how SwapStore calls interleave.
//
// A run is incremental iff prev is set: when prev was produced by an
// earlier call with the *same* compiled program, only specifications
// whose footprint overlaps the keys changed between prev's snapshot and
// this store's are re-executed, the rest spliced from prev's report, and
// the result is byte-identical to a full run (modulo Duration and
// SpecsReused). The splice assumes the environment is unchanged since
// prev's run: call SetEnv only before a lineage's first run. A nil or
// mismatched prev runs every specification. The returned state reflects
// this run, except after an interrupted run, whose incomplete verdict set
// must not seed future splices: prev comes back unchanged.
func (s *Session) RunProgramIncremental(ctx context.Context, prog *Program, st *Store, prev *RunState) (*Report, *LoadReport, *RunState, error) {
	specLoads, err := s.execLoads(ctx, prog, st)
	if err != nil {
		return nil, nil, prev, err
	}
	var prevSnap *config.Snapshot
	var prevRep *report.Report
	if prev != nil && prev.prog == prog {
		prevSnap, prevRep = prev.snap, prev.rep
	}
	eng := s.engineFor(st)
	rep := eng.RunIncrementalContext(ctx, prog, prevSnap, prevRep)
	if rep.Interrupted {
		return rep, specLoads, prev, nil
	}
	return rep, specLoads, &RunState{prog: prog, snap: eng.PinnedSnapshot(), rep: rep}, nil
}

// execLoads runs the program's load commands into the store, strict or
// degraded per the session options.
func (s *Session) execLoads(ctx context.Context, prog *Program, st *Store) (*LoadReport, error) {
	if s.Degrade {
		return s.degradeLoads(ctx, prog, st), nil
	}
	for _, ld := range prog.Loads {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := s.execLoad(ctx, ld, st); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// engineFor builds the engine one validation run uses, capturing the
// session's execution options.
func (s *Session) engineFor(st *Store) *engine.Engine {
	return &engine.Engine{
		Store: st,
		Env:   s.env,
		Opts: engine.Options{
			StopOnFirst: s.StopOnFirst,
			Parallel:    s.Parallel,
			Interpret:   s.Interpret,
		},
	}
}

// degradeLoads executes the program's load commands through the
// session's graceful-degradation loader into the given store.
func (s *Session) degradeLoads(ctx context.Context, prog *Program, st *Store) *LoadReport {
	if len(prog.Loads) == 0 {
		return nil
	}
	sources := make([]ingest.Source, 0, len(prog.Loads))
	for _, ld := range prog.Loads {
		sources = append(sources, s.ingestSource(ld))
	}
	rep := s.loadWith(ctx, &s.specLoader, st, sources)
	s.loadRep.Store(rep)
	return rep
}

// LoadSources loads configuration sources into st with graceful
// degradation, through the session's loader for them: a source that
// fails is served stale, within MaxStale rounds, when the previous call
// named it too, and is quarantined otherwise; the report accounts for
// every source.
func (s *Session) LoadSources(ctx context.Context, st *Store, sources []Source) *LoadReport {
	return s.loadWith(ctx, &s.dataLoader, st, sources)
}

// loadWith loads sources through the loader at p, building it first if
// none has been.
func (s *Session) loadWith(ctx context.Context, p *atomic.Pointer[ingest.Loader], st *Store, sources []Source) *LoadReport {
	l := p.Load()
	if l == nil {
		l = ingest.NewLoader(s.MaxStale)
		if !p.CompareAndSwap(nil, l) {
			l = p.Load()
		}
	}
	return l.Load(ctx, st, sources)
}

// ParseStats sums how the session's loaders parsed the sources they
// loaded cleanly: in full, or by a delta re-parse of a retained parse.
func (s *Session) ParseStats() ParseStats {
	var sum ParseStats
	for _, p := range [...]*atomic.Pointer[ingest.Loader]{&s.dataLoader, &s.specLoader} {
		if l := p.Load(); l != nil {
			ps := l.ParseStats()
			sum.Parsed += ps.Parsed
			sum.Reparsed += ps.Reparsed
		}
	}
	return sum
}

// ingestSource maps one CPL load command to an ingest source: registered
// in-memory data first, REST endpoints by URL, files last.
func (s *Session) ingestSource(ld compiler.Load) ingest.Source {
	src := ingest.Source{Name: ld.Source, Format: ld.Driver, Scope: ld.Scope}
	if data, ok := s.sources[ld.Source]; ok {
		src.Fetch = func(context.Context) ([]byte, error) { return data, nil }
	} else if ld.Driver == "rest" {
		// The rest driver resolves its transport itself; the bytes are
		// the endpoint URL.
		src.Fetch = func(context.Context) ([]byte, error) { return []byte(ld.Source), nil }
	}
	return src
}

// LastLoadReport returns the per-source accounting of the most recent
// Degrade-mode load, or nil when none has run.
func (s *Session) LastLoadReport() *LoadReport { return s.loadRep.Load() }

func (s *Session) execLoad(ctx context.Context, ld compiler.Load, st *Store) error {
	src := s.ingestSource(ld)
	data, err := []byte(nil), error(nil)
	if src.Fetch != nil {
		data, err = src.Fetch(ctx)
	} else {
		data, err = os.ReadFile(ld.Source)
		if err != nil {
			return fmt.Errorf("confvalley: reading %s: %w", ld.Source, err)
		}
	}
	if err != nil {
		return err
	}
	format := ld.Driver
	if format == "" {
		format = FormatFromPath(ld.Source)
	}
	ins, err := driver.ParseScoped(ctx, format, data, ld.Source, ld.Scope)
	if err != nil {
		return err
	}
	st.AddAll(ins)
	return nil
}

// Validate compiles CPL source and runs it against the session:
// the batch scenario.
func (s *Session) Validate(src string) (*Report, error) {
	prog, err := s.Compile(src)
	if err != nil {
		return nil, err
	}
	return s.ValidateProgram(prog)
}

// Check validates a single specification line against the session — the
// interactive console scenario (§5.1). Unlike Validate it reports
// success/failure compactly and never mutates session state.
func (s *Session) Check(line string) (*Report, error) {
	prog, err := s.Compile(line)
	if err != nil {
		return nil, err
	}
	if len(prog.Loads) > 0 {
		return nil, fmt.Errorf("confvalley: Check does not execute load commands; use Validate")
	}
	return s.engineFor(s.store.Load()).Run(prog), nil
}

// CheckSyntax parses and compiles CPL without executing anything — the
// editor scenario (§5.1): instant feedback while specifications are
// typed, catching syntax errors, unknown predicates, bad arities and
// undefined macros before the data is ever touched.
func (s *Session) CheckSyntax(src string) error {
	_, err := s.Compile(src)
	return err
}

// Infer mines validation specifications from the session's configuration
// data, assumed to be a known-good snapshot.
func (s *Session) Infer(opts InferenceOptions) *InferenceResult {
	return infer.Infer(s.store.Load(), opts)
}

// InferCPL mines specifications and renders them as a CPL file.
func (s *Session) InferCPL() string {
	return s.Infer(infer.Defaults()).GenerateCPL()
}

// Instances returns the instances matching a CPL notation, the "get"
// console command.
func (s *Session) Instances(notation string) ([]*Instance, error) {
	pat, err := config.ParsePattern(notation)
	if err != nil {
		return nil, err
	}
	return s.store.Load().Discover(pat), nil
}

// RenderReport writes a report in the standard human-readable layout.
func RenderReport(rep *Report, w interface{ Write([]byte) (int, error) }) error {
	return rep.Render(w)
}
