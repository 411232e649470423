package plan

// Evaluation-context pooling. Every SpecNode.Run used to allocate a
// fresh Ctx plus one []outcome per predicate closure per element batch;
// under the parallel engine and a busy service those allocations
// dominate the profile. A Ctx is instead drawn from a pool and carries
// a retained outcome arena that predicate closures carve slices from.
//
// Safety argument for the arena: outcome slices never escape a spec
// run. Predicates compose them in place (And/Or/Not rewrite their left
// operand), and the quantifier loop converts failures into report
// violations — which copy the message strings — before Run returns and
// the Ctx goes back to the pool. Carved regions are always cleared on
// handout because a recycled chunk still holds the previous run's
// values.

import (
	"sync"

	"confvalley/internal/cpl/ast"
)

var ctxPool = sync.Pool{New: func() any { return new(Ctx) }}

// getCtx returns a cleared evaluation context for one spec run,
// retaining any arena block the pooled Ctx carried.
func getCtx(rt *Runtime) *Ctx {
	c := ctxPool.Get().(*Ctx)
	c.rt, c.quant = rt, ast.QuantAll
	return c
}

// putCtx recycles a context after its spec run completes. Everything but
// the arena block is dropped here, so the pool never keeps a finished
// run's runtime, bindings or borrowed discovery results (the reference
// memo) alive.
func putCtx(c *Ctx) {
	*c = Ctx{chunk: c.chunk}
	ctxPool.Put(c)
}

// outcomes returns a zeroed n-element outcome slice carved from the
// context's arena, growing the arena when the current block is spent.
// The full-capacity slice expression keeps a later carve from being
// reachable through an earlier slice's append.
func (c *Ctx) outcomes(n int) []outcome {
	if n > len(c.chunk)-c.used {
		size := 1024
		if n > size {
			size = n
		}
		// Earlier carves keep the old block alive through their own
		// slice headers; dropping it here is safe.
		c.chunk = make([]outcome, size)
		c.used = 0
	}
	out := c.chunk[c.used : c.used+n : c.used+n]
	c.used += n
	for i := range out {
		out[i] = outcome{}
	}
	return out
}
