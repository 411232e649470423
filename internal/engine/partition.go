package engine

// Spec partitioning for parallel validation: specs are bin-packed onto
// workers by their estimated cost (LPT — longest processing time first —
// on footprint match counts, see plan.Costs). A Dynamic spec has no
// static cost and is priced at the mean of the known ones; a program
// with no known cost prices every spec at 1, which LPT deals exactly as
// round-robin would.
//
// Partition composition never affects report content: each spec's
// verdict is a section tagged with its execution position, and
// report.Assemble puts the sections back in sequential order, so the
// partitioner is free to chase balance alone. It is deterministic for a
// given (program, snapshot, n).

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
		if e.stopOnFirst() {
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
// kept in ascending order so every partition report's sections are in
// execution order by construction.
func (e *Engine) partitionSpecs(p *plan.Plan, idxs []int, n int) [][]int {
	if n > len(idxs) {
		n = len(idxs)
	}
	if n <= 1 {
		return [][]int{idxs}
	}
	return lptPartition(idxs, fillUnknownCosts(idxs, p.Costs(e.snap)), n)
}

// fillUnknownCosts prices, in place, each selected Dynamic spec at the
// mean cost of the selected specs with a static cost, or at 1 when none
// has one, so LPT can place them. It returns costs.
func fillUnknownCosts(idxs []int, costs []int64) []int64 {
	known, sum := 0, int64(0)
	for _, j := range idxs {
		if costs[j] != plan.CostUnknown {
			known++
			sum += costs[j]
		}
	}
	mean := int64(1)
	if known > 0 {
		mean = sum / int64(known) // every static cost is at least 1
	}
	for _, j := range idxs {
		if costs[j] == plan.CostUnknown {
			costs[j] = mean
		}
	}
	return costs
}

// lptPartition is greedy longest-processing-time bin-packing: visit
// specs in descending cost (ties broken by ascending position, so the
// result is deterministic) and place each on the currently lightest
// partition (ties to the lowest partition index). LPT's makespan is
// within 4/3 of optimal, which is ample against round-robin's worst
// case of stacking every heavyweight spec on one worker; over equal
// costs it deals round-robin.
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
