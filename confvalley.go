// Package confvalley is a systematic configuration validation framework
// for cloud services, a from-scratch Go implementation of the system
// described in "ConfValley: A Systematic Configuration Validation
// Framework for Cloud Services" (EuroSys 2015).
//
// ConfValley has three parts:
//
//   - CPL, a declarative specification language for configuration
//     constraints ("$Fabric.Timeout -> int & [5, 15]"), with namespaces,
//     compartments, transformations and quantifiers;
//   - a validation engine that discovers every instance of the referenced
//     configuration classes across diverse sources (XML, INI, JSON, YAML,
//     key-value, CSV, REST) and checks the constraints, producing
//     triage-friendly reports;
//   - an inference engine that mines specifications from known-good
//     configuration data, so most basic constraints never have to be
//     written by hand.
//
// The Session type ties the three together:
//
//	s := confvalley.NewSession()
//	_ = s.LoadData("ini", []byte("timeout = 30"), "app.ini", "App")
//	rep, err := s.Validate("$App.timeout -> int & [1, 60]")
//	if err != nil { ... }
//	if !rep.Passed() { rep.Render(os.Stdout) }
package confvalley

import (
	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/infer"
	"confvalley/internal/ingest"
	"confvalley/internal/plan"
	"confvalley/internal/predicate"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
	"confvalley/internal/transform"
	"confvalley/internal/value"
)

// Version identifies this ConfValley build. Every command accepts a
// -version flag that prints it, and the cvserve health endpoint reports
// it so clients can tell what they are talking to.
const Version = "0.7.0"

// ReportSchemaVersion is the version stamped on wire-encoded reports
// (Report.EncodeWire); see internal/report.SchemaVersion.
const ReportSchemaVersion = report.SchemaVersion

// Re-exported result and configuration types. The aliases keep the public
// surface in one import while the implementation stays in internal
// packages.
type (
	// Report is a validation run's outcome.
	Report = report.Report
	// ReportWire is the versioned, stable JSON form of a Report — the
	// machine contract emitted by cvcheck -json and cvserve.
	ReportWire = report.Wire
	// Violation is one failed check.
	Violation = report.Violation
	// Severity ranks violations.
	Severity = report.Severity
	// Instance is one configuration instance in the unified
	// representation.
	Instance = config.Instance
	// Key is a fully-qualified configuration instance key.
	Key = config.Key
	// Pattern is a CPL configuration notation.
	Pattern = config.Pattern
	// Store is the unified configuration representation: a staging area
	// for loads plus sealed snapshots that discovery reads lock-free.
	Store = config.Store
	// Snapshot is one sealed, immutable view of a Store.
	Snapshot = config.Snapshot
	// Program is a compiled CPL unit.
	Program = compiler.Program
	// InferenceResult holds mined constraints.
	InferenceResult = infer.Result
	// InferenceOptions tunes the mining heuristics.
	InferenceOptions = infer.Options
	// Env answers dynamic predicate queries (path existence,
	// reachability, host facts).
	Env = simenv.Env
	// SimEnv is a fully simulated Env.
	SimEnv = simenv.Sim
	// Source describes one configuration source for graceful-degradation
	// loading (file path, REST endpoint, or custom fetch).
	Source = ingest.Source
	// SourceOutcome is one source's per-round load result.
	SourceOutcome = ingest.Outcome
	// LoadReport aggregates a load round's per-source outcomes:
	// fresh/stale/quarantined accounting for degraded ingestion.
	LoadReport = ingest.LoadReport
	// Loader loads source batches with graceful degradation, retaining
	// each source's last good parse across validation rounds.
	Loader = ingest.Loader
	// ParseStats counts a loader's clean loads by full parse and by delta
	// re-parse against a retained parse.
	ParseStats = ingest.ParseStats
)

// Severity levels for validation policies.
const (
	Info     = report.Info
	Warning  = report.Warning
	Error    = report.Error
	Critical = report.Critical
)

// NewSimEnv returns an empty simulated environment; add paths and
// endpoints before validating specifications that use the exists or
// reachable predicates.
func NewSimEnv() *SimEnv { return simenv.NewSim() }

// HostEnv returns an environment backed by the real host: filesystem
// checks hit the disk, the clock and OS name are real, and reachability
// is always false (validation must not probe the network).
func HostEnv() Env { return simenv.Host{} }

// DefaultInferenceOptions returns the paper's inference heuristics
// (§4.5): 95% type-conformance threshold, ln(n) ≥ |set| enumeration rule
// with at most 10 members, equality clustering ignoring values shorter
// than 6 characters and classes with fewer than 20 instances.
func DefaultInferenceOptions() InferenceOptions { return infer.Defaults() }

// ParsePattern parses a CPL configuration notation such as
// "Cloud::CO2test2.Tenant.SecretKey".
func ParsePattern(s string) (Pattern, error) { return config.ParsePattern(s) }

// NewStore returns an empty configuration store. Most callers let
// NewSession build one; watch-style callers construct stores off to the
// side, fill them with LoadFileInto, and Session.SwapStore them in.
func NewStore() *Store { return config.NewStore() }

// DecodeReportWire parses a wire-encoded report produced by
// Report.EncodeWire (or by cvserve / cvcheck -json), rejecting schema
// versions newer than this build understands.
func DecodeReportWire(b []byte) (*ReportWire, error) { return report.DecodeWire(b) }

// NewLoader returns a graceful-degradation loader. maxStale bounds how
// many consecutive rounds a failing source is served from its last good
// parse before it degrades to quarantined (0 = forever, negative =
// never serve stale).
func NewLoader(maxStale int) *Loader { return ingest.NewLoader(maxStale) }

// PlanCacheStats reports cumulative hits and misses of the executable
// plan cache. A program validated repeatedly (watch mode, benchmarks,
// long-lived sessions) is lowered once and should count one miss
// followed by hits.
func PlanCacheStats() (hits, misses uint64) { return plan.CacheStats() }

// ---- Language extension (§4.2.6) ----
//
// CPL grows without compiler changes: register a predicate or a
// transformation and use it from specifications immediately. The paper
// reports ~70 lines of C# per new predicate; here it is one function.

type (
	// Value is a runtime value flowing through CPL evaluation: a scalar
	// string, or a list/tuple produced by transformations.
	Value = value.V
	// PredicateFunc is a plug-in predicate: a named boolean check over
	// one element with literal arguments and environment access.
	PredicateFunc = predicate.Func
	// TransformFunc is a plug-in transformation, map-like (per element)
	// or reduce-like (whole domain).
	TransformFunc = transform.Func
)

// Transformation styles for TransformFunc.
const (
	TransformMap    = transform.Map
	TransformReduce = transform.Reduce
)

// ScalarValue wraps a raw string as a Value.
func ScalarValue(raw string) Value { return value.Scalar(raw) }

// ListValue builds a list Value.
func ListValue(elems []Value) Value { return value.ListOf(elems) }

// RegisterPredicate installs a plug-in predicate, immediately usable in
// CPL ("$Commit -> gitsha"). Registering a duplicate name panics.
func RegisterPredicate(f *PredicateFunc) { predicate.Register(f) }

// RegisterTransform installs a plug-in transformation, immediately usable
// in CPL pipelines ("$Endpoint -> hostpart() -> hostname"). Registering a
// duplicate name panics.
func RegisterTransform(f *TransformFunc) { transform.Register(f) }
