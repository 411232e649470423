package plan

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/cpl/ast"
	"confvalley/internal/predicate"
	"confvalley/internal/value"
)

// aggOracle is the aggregate predicates as they stood before they read a
// class's run in place: every class gathered by PartitionByClass and
// copied out by Subset, whatever the order of the elements. It is kept
// verbatim as the oracle TestAggregateRunsMatchOracle holds aggPred to.
func aggOracle(name string) predFn {
	switch name {
	case "unique":
		return oracleAggPred(func(elems, sub []value.V, part []int, out []outcome) {
			for _, j := range predicate.UniqueViolations(sub) {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q duplicates another instance's value", elems[i])}
			}
		})
	case "consistent":
		return oracleAggPred(func(elems, sub []value.V, part []int, out []outcome) {
			viols := predicate.ConsistentViolations(sub)
			if len(viols) == 0 {
				return
			}
			majority := MajorityValue(sub, viols)
			for _, j := range viols {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q is inconsistent with the majority value %q", elems[i], majority)}
			}
		})
	case "ordered":
		return oracleAggPred(func(elems, sub []value.V, part []int, out []outcome) {
			for _, j := range predicate.OrderedViolations(sub) {
				i := part[j]
				out[i] = outcome{msg: fmt.Sprintf("value %q breaks the expected ordering (previous: %q)", elems[i], sub[j-1])}
			}
		})
	}
	panic("aggOracle: " + name)
}

func oracleAggPred(fill func(elems, sub []value.V, part []int, out []outcome)) predFn {
	return func(c *Ctx, elems []value.V) ([]outcome, error) {
		out := c.outcomes(len(elems))
		for i := range out {
			out[i] = outcome{pass: true}
		}
		for _, part := range PartitionByClass(elems) {
			fill(elems, Subset(elems, part), part, out)
		}
		return out, nil
	}
}

// aggClasses are the classes the aggregate test draws elements from: a
// value with no instance, a key of no segments (the two group
// together), two classes that both display as a.b.c, and the rest.
var aggClasses = [][]string{nil, {}, {"a.b", "c"}, {"a", "b.c"}, {"a", "b", "c"}, {"C", "T"}, {"C", "U"}, {"T"}}

// aggElems generates n elements in runs of classes drawn from the first
// k of aggClasses, so classes interleave and recur, with values drawn
// from a few numbers so that every aggregate finds violations.
func aggElems(rng *rand.Rand, n, k int) []value.V {
	elems := make([]value.V, 0, n)
	for len(elems) < n {
		names := aggClasses[rng.IntN(k)]
		for run := 1 + rng.IntN(4); run > 0 && len(elems) < n; run-- {
			raw := fmt.Sprint(rng.IntN(4))
			if names == nil {
				elems = append(elems, value.Scalar(raw))
				continue
			}
			segs := make([]config.Seg, len(names))
			for i, name := range names {
				segs[i] = config.Seg{Name: name, Inst: fmt.Sprint(len(elems))}
			}
			elems = append(elems, value.FromInstance(&config.Instance{Key: config.Key{Segs: segs}, Value: raw}))
		}
	}
	return elems
}

// Each aggregate predicate reading class runs in place is the oracle's,
// outcome for outcome, on generated element sets where classes come in
// one run each and where they recur, so both its paths run.
func TestAggregateRunsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(52, 1))
	paths := map[bool]int{}
	for iter := 0; iter < 2000; iter++ {
		elems := aggElems(rng, rng.IntN(24), 1+rng.IntN(len(aggClasses)))
		_, runs := classRuns(elems, nil)
		paths[runs]++
		for _, name := range []string{"unique", "consistent", "ordered"} {
			got := runPred(t, lowerPrim(&ast.Prim{Name: name}), elems)
			want := runPred(t, aggOracle(name), elems)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s over %v (one run per class: %t):\n got  %v\n want %v", name, elems, runs, got, want)
			}
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("generated sets with one run per class: %d, with a recurring class: %d; want both", paths[true], paths[false])
	}
}

// More class runs than classRuns checks take the gathering path, with
// the same outcomes.
func TestAggregateManyRunsMatchOracle(t *testing.T) {
	var elems []value.V
	for i := 0; i < 3*maxRuns; i++ {
		in := &config.Instance{Key: config.K("C", fmt.Sprintf("P%d", i)), Value: "1"}
		elems = append(elems, value.FromInstance(in), value.FromInstance(in))
	}
	if _, ok := classRuns(elems, nil); ok {
		t.Fatalf("%d runs read in place, want more than maxRuns to gather", 3*maxRuns)
	}
	got := runPred(t, lowerPrim(&ast.Prim{Name: "unique"}), elems)
	if want := runPred(t, aggOracle("unique"), elems); !reflect.DeepEqual(got, want) {
		t.Fatalf("unique over %d runs:\n got  %v\n want %v", 3*maxRuns, got, want)
	}
}

// runPred evaluates a predicate on a fresh context and returns a copy of
// its outcomes.
func runPred(t *testing.T, pred predFn, elems []value.V) []outcome {
	t.Helper()
	c := getCtx(&Runtime{})
	defer putCtx(c)
	out, err := pred(c, elems)
	if err != nil {
		t.Fatal(err)
	}
	return append([]outcome(nil), out...)
}
