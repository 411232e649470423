// Package plan lowers compiled CPL programs into executable plans: the
// stage between internal/compiler and internal/engine that separates the
// *interpretation* of configuration semantics from their *execution*.
//
// A compiled Program is a tree of AST nodes; interpreting it re-resolves
// every predicate, transform and literal on each run. Lowering walks each
// specification once and binds the work that does not depend on the
// configuration data into closures:
//
//   - match patterns are classified (regexp / glob / substring) and
//     regular expressions compiled exactly once;
//   - extension predicates and transformations are looked up in their
//     registries once, their literal arguments pre-evaluated;
//   - macro references are resolved and inlined;
//   - static error-message fragments (rendered predicate text, enum
//     member lists) are rendered once;
//   - per-spec namespace candidate patterns are pre-built when the
//     configuration reference has no variables.
//
// The result is a flat, dependency-free list of SpecNodes the executor
// can run sequentially or partition across workers. A program owns its
// plan (For): it is lowered on first use, kept in the program and freed
// with it, so repeated validations of the same program — cvcheck --watch
// rounds, session reuse, a service's registered specs — skip lowering
// entirely.
//
// Lowering never fails: constructs whose errors the interpreter reports
// at evaluation time (unknown transforms, unbound variables, bad regular
// expressions) are lowered to closures that reproduce the same error at
// the same point of execution, so planned and interpreted runs produce
// byte-identical reports.
package plan

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/driver"
	"confvalley/internal/simenv"
	"confvalley/internal/value"
)

// Plan is an executable lowering of a compiled program. The program owns
// it (For) and the plan holds no pointer back: a cycle would keep a
// finalizer set on the program from ever running, which is how the
// retention tests see a retired program go.
type Plan struct {
	// Specs holds one executable node per specification, in execution
	// order. The list is dependency-free: any partition of it may run
	// concurrently against the same store.
	Specs []*SpecNode
	// Projection keeps the configuration classes the program can read;
	// a full run loads through it. Nil when some spec is Dynamic or the
	// program has load commands: then every class may be read.
	Projection *driver.Projection
}

// SpecNode is one specification lowered to closures.
type SpecNode struct {
	// Spec is the compiled specification (text, quantifier, severity,
	// message override) the node was lowered from.
	Spec *compiler.Spec
	// Seq is the node's position in execution order; violations carry it
	// so parallel partition merges can restore sequential report order.
	Seq int

	conds   []condNode
	domains []domainEval
	pred    predFn
	fp      Footprint // static read set; see footprint.go
}

// Runtime binds a plan to the data one validation run checks.
type Runtime struct {
	// Snap pins one sealed store view for the whole run: every partition
	// of a parallel execution discovers against the same immutable
	// indexes with no locking.
	Snap *config.Snapshot
	Env  simenv.Env
	// StopOnFirst aborts at the first violation.
	StopOnFirst bool
	// Ctx carries the run's deadline and cancellation. Nil means
	// uncancellable. The engine's spec loop polls it between specs; a
	// spec node polls it between domains, compartment groups and bound
	// values, rolling itself back when it fires.
	Ctx context.Context

	// groups numbers the run's compartment instances (see groupNumbers
	// in lower.go). It is the one piece of Runtime that execution
	// writes, under its own lock; it dies with the run.
	groups groupNumbers
}

// Ctx carries the evaluation state for one specification. It is the
// lowered counterpart of the interpreter's evalCtx: one Ctx lives per
// (spec, run) and is never shared between goroutines, so closures may
// save/restore fields instead of cloning.
type Ctx struct {
	rt    *Runtime
	env   map[string]string // variable bindings; nil until a cond binds one
	group int32             // current compartment instance's run-wide number; -1 = none
	quant ast.Quant         // quantifier hint for Range/Rel candidates
	cur   *value.V          // current element for $_ and per-element exprs

	// compPattern is the combined compartment pattern in effect, used to
	// prefix references resolved inside the compartment.
	compPattern *config.Pattern

	// refs memoises reference resolution for this spec run: each
	// reference is resolved once per compartment it is evaluated under,
	// and partitioned by compartment instance once (see resolution in
	// lower.go). It dies with the run; nothing here outlives putCtx.
	refs map[refKey]*resolution

	polls       uint32 // inner-loop cancellation polls since the last real check
	interrupted bool   // latched once the context reported canceled

	// outs and vals are the outcome and value arenas (see pool.go):
	// predicate closures carve per-element results, and reference
	// domains their element sets, out of retained blocks instead of
	// allocating each. The blocks survive pooling (putCtx), so
	// steady-state runs stop allocating either.
	outs arena[outcome]
	vals arena[value.V]
}

// canceled polls the run's context from inside a spec. Consulting a
// cancellable context costs a lock, which dominates tight per-value
// loops, so those poll the context only once every 64 calls and latch
// the answer. Spec boundaries are polled exactly by the engine's spec
// loop; inside a spec, cancellation lands at most 63 elements late.
func (c *Ctx) canceled() bool {
	if c.rt.Ctx == nil {
		return false
	}
	if c.interrupted {
		return true
	}
	if c.polls++; c.polls&63 != 0 {
		return false
	}
	if c.rt.Ctx.Err() != nil {
		c.interrupted = true
		return true
	}
	return false
}

// discover returns the instances matching q as a borrowed, read-only
// view of the snapshot's discovery cache (config.Snapshot.View): every
// consumer in this package only reads it. It is the executor's only
// read of the store.
func (c *Ctx) discover(q config.Query) []*config.Instance {
	ins := c.rt.Snap.View(q)
	if discoverHook != nil {
		discoverHook(q, ins)
	}
	return ins
}

// discoverHook, when set, sees every query the executor makes and its
// answer. Only tests set it: the read-set oracle holds footprints to it.
var discoverHook func(q config.Query, ins []*config.Instance)

// closure signatures: a domain resolves to an element set, a predicate
// maps an element set to per-element outcomes, an expression yields its
// candidate values.
type (
	domainFn func(c *Ctx) ([]value.V, error)
	predFn   func(c *Ctx, elems []value.V) ([]outcome, error)
	exprFn   func(c *Ctx) ([]value.V, error)
	stepFn   func(c *Ctx, elems []value.V) ([]value.V, error)
)

// outcome is the per-element result of a predicate.
type outcome struct {
	pass bool
	msg  string // failure explanation (only when !pass)
}

// condNode is one lowered conditional guard.
type condNode struct {
	bindVar string
	negate  bool
	quant   ast.Quant
	domain  domainFn
	pred    predFn
}

// domainEval is one lowered domain with its compartment lifted.
type domainEval struct {
	comp     *config.Pattern // combined compartment pattern; nil when none
	resolve  domainFn        // the inner domain (compartment stripped)
	groupRef *refNode        // base reference for compartment grouping
}

// ---- Lowering once per program ----

// lowerings counts the programs For has lowered in this process.
var lowerings atomic.Uint64

// For returns prog's plan. The program owns it: the first call lowers
// prog and keeps the plan in the program (compiler.Program.Lowered), so
// concurrent first calls share one lowering, every later call returns the
// same pointer, and the plan is freed with the program.
func For(prog *compiler.Program) *Plan {
	return prog.Lowered(func(prog *compiler.Program) any {
		lowerings.Add(1)
		return Lower(prog)
	}).(*Plan)
}

// Lowerings reports how many programs For has lowered in this process.
func Lowerings() uint64 { return lowerings.Load() }

// Forget does nothing: a plan is freed with its program.
//
// Deprecated: kept until the benchmark stops calling it (ROADMAP items
// 1(b) and 1(c)).
func Forget(*compiler.Program) {}

// CacheStats reports no hits and Lowerings as misses.
//
// Deprecated: use Lowerings; kept until the benchmark stops calling it
// (ROADMAP items 1(b) and 1(c)).
func CacheStats() (hits, misses uint64) { return 0, Lowerings() }

// ---- Shared evaluation helpers ----
//
// These are used by both the plan executor and the engine's interpreted
// path; sharing them guarantees the two paths agree on the corner cases
// (quantifier arithmetic, bound pairing, per-class partitioning).

// QuantHolds applies a quantifier to a match count.
func QuantHolds(q ast.Quant, matches, total int) bool {
	switch q {
	case ast.QuantExists:
		return matches > 0
	case ast.QuantOne:
		return matches == 1
	default:
		return matches == total
	}
}

// PairBounds zips lo/hi candidates when they have equal cardinality (the
// compartment-paired case) and takes the Cartesian product otherwise.
func PairBounds(los, his []value.V) [][2]value.V {
	var out [][2]value.V
	if len(los) == len(his) {
		for i := range los {
			out = append(out, [2]value.V{los[i], his[i]})
		}
		return out
	}
	for _, lo := range los {
		for _, hi := range his {
			out = append(out, [2]value.V{lo, hi})
		}
	}
	return out
}

// PartitionByClass groups element indexes by their configuration class.
// Aggregate predicates (unique, consistent, ordered) apply per class: a
// predicate over class C characterizes C's instances (§4.2.1), and a
// wildcard reference denotes a set of classes, each checked on its own.
// A class is the store's: a sequence of segment names, so "a.b" then "c"
// is not "a" then "b.c". Derived values with no provenance share one
// partition with keys of no segments. Groups come in order of first
// appearance. Each class is rendered into a stack buffer, every name
// ended by a NUL byte (which no name holds), and looked up without a
// copy, so the grouping allocates one string per distinct class, not one
// per element.
func PartitionByClass(elems []value.V) [][]int {
	index := make(map[string]int)
	of := make([]int, len(elems)) // class number of each element
	var sizes []int
	var scratch [192]byte // a longer class spills to the heap
	for i, v := range elems {
		id := scratch[:0]
		if v.Inst != nil {
			for _, s := range v.Inst.Key.Segs {
				id = append(append(id, s.Name...), 0)
			}
		}
		g, ok := index[string(id)]
		if !ok {
			g = len(sizes)
			index[string(id)] = g
			sizes = append(sizes, 0)
		}
		of[i] = g
		sizes[g]++
	}
	// One backing array carved into per-class slices, each clipped so an
	// append to one class cannot run into the next.
	backing := make([]int, len(elems))
	out := make([][]int, len(sizes))
	off := 0
	for g, size := range sizes {
		out[g] = backing[off : off : off+size]
		off += size
	}
	for i, g := range of {
		out[g] = append(out[g], i)
	}
	return out
}

// Subset selects elems at the given indexes.
func Subset(elems []value.V, idx []int) []value.V {
	out := make([]value.V, len(idx))
	for i, j := range idx {
		out[i] = elems[j]
	}
	return out
}

// MajorityValue returns the first value not listed among the violating
// indexes — the majority representative for consistency messages.
func MajorityValue(elems []value.V, viols []int) string {
	bad := make(map[int]bool, len(viols))
	for _, i := range viols {
		bad[i] = true
	}
	for i, v := range elems {
		if !bad[i] {
			return v.String()
		}
	}
	return ""
}

// RenderMembers renders an enum member set for error messages, elided
// past five entries.
func RenderMembers(ms []value.V) string {
	const max = 5
	parts := make([]string, 0, max+1)
	for i, m := range ms {
		if i == max {
			parts = append(parts, fmt.Sprintf("... (%d more)", len(ms)-max))
			break
		}
		parts = append(parts, fmt.Sprintf("%q", m.String()))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// ExprUsesCur reports whether the expression depends on the current
// element ($_ or a transform over it).
func ExprUsesCur(x ast.Expr) bool {
	de, ok := x.(*ast.DomainExpr)
	if !ok {
		return false
	}
	uses := false
	var walk func(d ast.Domain)
	walk = func(d ast.Domain) {
		switch t := d.(type) {
		case *ast.PipeVar:
			uses = true
		case *ast.Pipe:
			walk(t.Src)
		case *ast.BinaryDomain:
			walk(t.L)
			walk(t.R)
		case *ast.Ref:
			for _, v := range t.Pattern.Vars() {
				if v == "_" {
					uses = true
				}
			}
		}
	}
	walk(de.D)
	return uses
}

// BaseRef finds the leftmost configuration reference of a domain tree,
// the reference compartment grouping keys on.
func BaseRef(d ast.Domain) *ast.Ref {
	switch t := d.(type) {
	case *ast.Ref:
		return t
	case *ast.Pipe:
		return BaseRef(t.Src)
	case *ast.BinaryDomain:
		if r := BaseRef(t.L); r != nil {
			return r
		}
		return BaseRef(t.R)
	case *ast.CompartmentDomain:
		return BaseRef(t.Inner)
	}
	return nil
}
