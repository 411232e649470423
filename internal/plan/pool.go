package plan

// Evaluation-context pooling. Every SpecNode.Run used to allocate a
// fresh Ctx, one []outcome per predicate closure per element batch and
// one []value.V per reference domain; under the parallel engine and a
// busy service those allocations dominate the profile. A Ctx is instead
// drawn from a pool and carries two retained arenas, one of outcomes
// and one of values, that closures carve slices from.
//
// Safety argument for the arenas: nothing carved from them escapes a
// spec run. Predicates compose outcome slices in place (And/Or/Not
// rewrite their left operand), and the quantifier loop converts
// failures into report violations — which copy the message, the
// value's rendering (v.String()) and the key — before Run returns and
// the Ctx goes back to the pool. Value slices are element sets: steps,
// predicates and bindings read them and build new slices or strings
// from them, and no []value.V is kept past SpecNode.Run. Within a run
// a carve is never handed out twice (the used mark only grows), so a
// closure may rewrite the slice it was given.
//
// The arenas hold no stale data: putCtx clears the region a run used,
// so a carve is zero on handout and the pool never keeps an instance,
// and through it a snapshot or a request buffer, alive. A block grows to
// at most arenaCap elements; once it is there, a carve that does not fit
// is allocated exactly and left to the collector, as is any carve larger
// than the cap.

import (
	"sync"

	"confvalley/internal/cpl/ast"
	"confvalley/internal/value"
)

// arenaCap bounds, in elements, the block each arena keeps between runs:
// 32,768 outcomes are 768 KiB and as many values 1.5 MiB per pooled Ctx.
const arenaCap = 1 << 15

// arenaMin is the smallest block an arena allocates.
const arenaMin = 1024

var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// getCtx returns a cleared evaluation context for one spec run,
// retaining the arena blocks the pooled Ctx carried.
func getCtx(rt *Runtime) *Ctx {
	c := ctxPool.Get().(*Ctx)
	c.bind(rt)
	return c
}

// bind readies a released context for a spec run against rt.
func (c *Ctx) bind(rt *Runtime) {
	c.rt, c.quant, c.group = rt, ast.QuantAll, -1
}

// putCtx recycles a context after its spec run completes.
func putCtx(c *Ctx) {
	c.release()
	ctxPool.Put(c)
}

// release clears the arenas' used regions and drops everything else, so
// a pooled context keeps no finished run's runtime, bindings, borrowed
// discovery results (the reference memo) or values alive.
func (c *Ctx) release() {
	clear(c.outs.block[:c.outs.used])
	clear(c.vals.block[:c.vals.used])
	*c = Ctx{outs: arena[outcome]{block: c.outs.block}, vals: arena[value.V]{block: c.vals.block}}
}

// outcomes returns a zeroed n-element outcome slice carved from the
// context's outcome arena.
func (c *Ctx) outcomes(n int) []outcome { return c.outs.carve(n) }

// values returns a zeroed n-element value slice carved from the
// context's value arena.
func (c *Ctx) values(n int) []value.V { return c.vals.carve(n) }

// arena is a retained block that carves hand out zeroed slices of: the
// region past used is always zero (a fresh block is, and putCtx clears
// what a run used).
type arena[T any] struct {
	block []T
	used  int
}

// carve returns a zeroed n-element slice. A block too small for the
// carve is replaced by one of max(arenaMin, 2×len, n) elements, clipped
// to arenaCap; past the cap — a carve larger than it, or one that does
// not fit a block already at it — the carve is allocated exactly and not
// retained. The full-capacity slice expression keeps a later carve from
// being reachable through an earlier slice's append.
func (a *arena[T]) carve(n int) []T {
	if n > len(a.block)-a.used {
		if n > arenaCap || len(a.block) == arenaCap {
			return make([]T, n)
		}
		// Earlier carves keep the old block alive through their own
		// slice headers; dropping it here is safe, and its used region
		// dies with them.
		a.block = make([]T, min(max(arenaMin, 2*len(a.block), n), arenaCap))
		a.used = 0
	}
	out := a.block[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}
