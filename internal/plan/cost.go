package plan

// Spec cost estimation for the engine's cost-model partitioner. A
// specification's execution time is dominated by how many instances its
// discoveries return — every matched instance flows through predicate
// closures, and the discovery itself walks the matching classes — so
// the sum of footprint-pattern match counts against the run's snapshot
// is a cheap, strongly-correlated proxy for per-spec work. The
// estimate deliberately stays coarse: the partitioner only needs
// relative weights good enough to keep one heavyweight spec from
// pinning a whole partition behind it (LPT bin-packing), not absolute
// timings.

import "confvalley/internal/config"

// CostUnknown marks a spec whose cost cannot be estimated statically: a
// Dynamic footprint discovers patterns assembled from data at run time.
const CostUnknown int64 = -1

// Costs estimates each spec's execution cost against one snapshot, in
// execution order: 1 (the fixed per-spec overhead) plus the number of
// instances each footprint pattern matches. Dynamic specs report
// CostUnknown. The plan must keep no reference to sn — it outlives every
// snapshot it prices — and has no need to: each count is a view the
// snapshot's own discovery cache memoises, so the counting pass warms it
// with exactly the patterns the validation run is about to discover, and
// asking again costs a lookup per pattern.
func (p *Plan) Costs(sn *config.Snapshot) []int64 {
	costs := make([]int64, len(p.Specs))
	for i, n := range p.Specs {
		if n.fp.Dynamic {
			costs[i] = CostUnknown
			continue
		}
		c := int64(1)
		for _, pat := range n.fp.Patterns {
			c += int64(sn.Count(pat))
		}
		costs[i] = c
	}
	return costs
}
