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

	// Options are the engine options every validation runs under:
	// Parallel sets the worker count (0 or negative: one per hardware
	// thread; 1: sequential; N > 1: exactly N, clamped to the spec
	// count), StopOnFirst aborts at the first violation, and the
	// deprecated Interpret is set only by internal/runner, for its own.
	engine.Options
	// SpecDir resolves relative include paths; defaults to the working
	// directory.
	SpecDir string
	// Degrade switches the program's load commands to graceful
	// degradation: a malformed or unreachable source is quarantined
	// instead of aborting validation, with the per-source accounting
	// returned by RunProgramIncremental. A run with a lineage — a prev
	// state whose run loaded the source — serves the source from that
	// run's last good parse instead, within MaxStale rounds; a run
	// without one has nothing to serve. Without Degrade, the first load
	// failure aborts — the strict historical behavior.
	Degrade bool
	// MaxStale bounds how many consecutive rounds of a lineage a failing
	// source may be served from its last good parse, under Degrade and
	// in LoadSources; 0 = forever, negative = never serve stale. Stale
	// serving needs a lineage: a run with no previous state loads cold.
	MaxStale int

	// registered in-memory spec files for hermetic includes.
	includes map[string]string
	// registered in-memory data sources for hermetic loads.
	sources map[string][]byte
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
// keeps a copy, which every load of the source hands over as bytes
// nobody writes again; data stays the caller's.
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
// Interrupted. With Degrade set, per-source load failures quarantine
// instead of aborting; the run has no lineage, so nothing is served stale.
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

// RunState is what one completed validation run hands the next: its
// (program, snapshot, report) triple and the parses of the sources it
// loaded — the one incremental lineage type. A caller threads the state
// RunProgramIncremental returns into its next call; callers with several
// lineages (a multi-tenant service keeps one per registered spec) hold
// several states against one session. A RunState is immutable; sharing
// one across concurrent runs is safe.
type RunState struct {
	prog *compiler.Program
	snap *config.Snapshot
	rep  *report.Report
	// data and loads are the last good parses of the run's sources
	// (LoadSources) and of its program's load commands: the next run's
	// loads of the same sources re-parse against them, and serve them
	// stale when they fail (DESIGN.md §9).
	data, loads ingest.Parses
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
// mismatched prev runs every specification. Under Degrade the load
// commands start from the parses prev's run loaded, whatever its program.
// The returned state reflects this run, except after an interrupted run,
// whose incomplete verdict set must not seed future splices: prev comes
// back unchanged.
func (s *Session) RunProgramIncremental(ctx context.Context, prog *Program, st *Store, prev *RunState) (*Report, *LoadReport, *RunState, error) {
	var from RunState
	if prev != nil {
		from = *prev
	}
	specLoads, loads, err := s.execLoads(ctx, prog, st, from.loads)
	if err != nil {
		return nil, nil, prev, err
	}
	if from.prog != prog {
		from.snap, from.rep = nil, nil
	}
	eng := s.engineFor(st)
	rep := eng.RunIncrementalContext(ctx, prog, from.snap, from.rep)
	if rep.Interrupted {
		return rep, specLoads, prev, nil
	}
	return rep, specLoads, &RunState{prog: prog, snap: eng.PinnedSnapshot(), rep: rep, data: from.data, loads: loads}, nil
}

// execLoads runs the program's load commands into the store, strict or
// degraded per the session options, and returns the parses a degraded
// load keeps.
func (s *Session) execLoads(ctx context.Context, prog *Program, st *Store, prev ingest.Parses) (*LoadReport, ingest.Parses, error) {
	if s.Degrade {
		rep, next := s.degradeLoads(ctx, prog, st, prev)
		return rep, next, nil
	}
	for _, ld := range prog.Loads {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := ingest.LoadSource(ctx, st, s.ingestSource(ld)); err != nil {
			return nil, nil, err
		}
	}
	return nil, nil, nil
}

// engineFor builds the engine one validation run uses, capturing the
// session's execution options.
func (s *Session) engineFor(st *Store) *engine.Engine {
	return &engine.Engine{Store: st, Env: s.env, Opts: s.Options}
}

// degradeLoads executes the program's load commands with graceful
// degradation into the given store, starting from prev's parses of them.
func (s *Session) degradeLoads(ctx context.Context, prog *Program, st *Store, prev ingest.Parses) (*LoadReport, ingest.Parses) {
	if len(prog.Loads) == 0 {
		return nil, nil
	}
	sources := make([]ingest.Source, 0, len(prog.Loads))
	for _, ld := range prog.Loads {
		sources = append(sources, s.ingestSource(ld))
	}
	return ingest.Load(ctx, st, sources, prev, s.MaxStale)
}

// LoadSources loads configuration sources into st with graceful
// degradation, for the run that is to validate st: a source that fails
// is served stale, within MaxStale rounds, from the parse prev's run
// loaded of it, and is quarantined when there is none; the report
// accounts for every source and is nil when there are none. It returns
// prev with this batch's parses in place of its own: hand that to
// RunProgramIncremental as the run's prev, and the state the run returns
// carries them to the next.
func (s *Session) LoadSources(ctx context.Context, st *Store, sources []Source, prev *RunState) (*LoadReport, *RunState) {
	var next RunState
	if prev != nil {
		next = *prev
	}
	if len(sources) == 0 {
		next.data = nil
		return nil, &next
	}
	var rep *LoadReport
	rep, next.data = ingest.Load(ctx, st, sources, next.data, s.MaxStale)
	return rep, &next
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
