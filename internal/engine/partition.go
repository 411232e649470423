package engine

// Spec partitioning for parallel validation. The cost-model partitioner
// bin-packs specs onto workers by their estimated cost (LPT — longest
// processing time first — on footprint match counts, see plan.Costs);
// the round-robin splitter is its fallback when the cost model covers
// too little of the program (mostly Dynamic specs, which have no static
// cost).
//
// Partition composition never affects report content: violations carry
// the spec's execution position and the merge restores sequential
// order, so the partitioner is free to chase balance alone. Both
// strategies are deterministic for a given (program, snapshot, n).

import (
	"runtime"
	"sort"

	"confvalley/internal/plan"
)

// effectiveParallel resolves Opts.Parallel to the worker count for a
// run over nspecs specifications: 0 (or negative) means one partition
// per hardware thread, and the count is clamped to the spec count so no
// goroutine is ever spawned for an empty partition. StopOnFirst runs
// stay sequential unless parallelism was requested explicitly — the
// stop point depends on global execution order, so defaulting it to
// parallel would make the default report's truncation host-dependent.
func (e *Engine) effectiveParallel(nspecs int) int {
	n := e.Opts.Parallel
	if n <= 0 {
		if e.Opts.StopOnFirst {
			return 1
		}
		n = runtime.GOMAXPROCS(0)
	}
	if n > nspecs {
		n = nspecs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// partitionSpecs splits the given spec indexes (ascending execution
// positions) into exactly min(n, len(idxs)) non-empty partitions, each
// kept in ascending order so every partition report is Seq-sorted by
// construction. A program whose costs are mostly unknown is dealt
// round-robin.
func (e *Engine) partitionSpecs(p *plan.Plan, idxs []int, n int) [][]int {
	if n > len(idxs) {
		n = len(idxs)
	}
	if n <= 1 {
		return [][]int{idxs}
	}
	costs := p.Costs(e.snap)
	if costs = fillUnknownCosts(idxs, costs); costs == nil {
		return roundRobin(idxs, n)
	}
	return lptPartition(idxs, costs, n)
}

// roundRobin deals indexes across n partitions in order.
func roundRobin(idxs []int, n int) [][]int {
	parts := make([][]int, n)
	for i, j := range idxs {
		parts[i%n] = append(parts[i%n], j)
	}
	return parts
}

// fillUnknownCosts substitutes the mean known cost for Dynamic specs so
// LPT can place them, returning nil — round-robin territory — when over
// half of the selected specs have no static cost (a mostly-dynamic
// program gives the model nothing to balance on). The input slice is
// never modified.
func fillUnknownCosts(idxs []int, costs []int64) []int64 {
	known, sum := 0, int64(0)
	for _, j := range idxs {
		if costs[j] != plan.CostUnknown {
			known++
			sum += costs[j]
		}
	}
	if known*2 < len(idxs) {
		return nil
	}
	mean := sum / int64(known)
	if mean < 1 {
		mean = 1
	}
	out := make([]int64, len(costs))
	copy(out, costs)
	for _, j := range idxs {
		if out[j] == plan.CostUnknown {
			out[j] = mean
		}
	}
	return out
}

// lptPartition is greedy longest-processing-time bin-packing: visit
// specs in descending cost (ties broken by ascending position, so the
// result is deterministic) and place each on the currently lightest
// partition (ties to the lowest partition index). LPT's makespan is
// within 4/3 of optimal, which is ample against round-robin's worst
// case of stacking every heavyweight spec on one worker.
func lptPartition(idxs []int, costs []int64, n int) [][]int {
	order := append([]int(nil), idxs...)
	sort.SliceStable(order, func(a, b int) bool {
		return costs[order[a]] > costs[order[b]]
	})
	parts := make([][]int, n)
	load := make([]int64, n)
	for _, j := range order {
		k := 0
		for i := 1; i < n; i++ {
			if load[i] < load[k] {
				k = i
			}
		}
		parts[k] = append(parts[k], j)
		load[k] += costs[j]
	}
	for i := range parts {
		sort.Ints(parts[i])
	}
	return parts
}
