package engine

import (
	"strings"
	"testing"

	"confvalley/internal/config"
	"confvalley/internal/predicate"
	"confvalley/internal/simenv"
	"confvalley/internal/transform"
	"confvalley/internal/value"
)

func TestCondQuantifierAllAndOne(t *testing.T) {
	st := config.NewStore()
	kv(st, "Flag[1]", "on")
	kv(st, "Flag[2]", "on")
	kv(st, "Marker", "x")
	// ∀ condition: every Flag is on -> body runs.
	rep := run(t, st, "if (all $Flag -> == 'on') $Marker -> int")
	if len(rep.Violations) != 1 {
		t.Errorf("all-condition body skipped: %v", rep.Violations)
	}
	// ∃! condition: two matches -> body skipped.
	rep = run(t, st, "if (one $Flag -> == 'on') $Marker -> int")
	if !rep.Passed() {
		t.Errorf("one-condition should gate body off: %v", rep.Violations)
	}
	// Vacuous ∀ over an empty domain holds.
	rep = run(t, st, "if (all $NoSuch -> == 'x') $Marker -> int")
	if len(rep.Violations) != 1 {
		t.Errorf("vacuous-all condition should run body: %v", rep.Violations)
	}
}

func TestEnumLiteralAndDomainMix(t *testing.T) {
	st := config.NewStore()
	kv(st, "Pool.Name", "alpha")
	kv(st, "Assigned[1]", "alpha")
	kv(st, "Assigned[2]", "fallback")
	kv(st, "Assigned[3]", "beta")
	rep := run(t, st, "$Assigned -> {'fallback', $Pool.Name}")
	if len(rep.Violations) != 1 || rep.Violations[0].Value != "beta" {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestBaseRefRightSideOfArithmetic(t *testing.T) {
	st := config.NewStore()
	kv(st, "Cluster::c1.Total", "10")
	// Left side is a pipe over a reference; grouping still found.
	rep := run(t, st, "compartment Cluster { trim($Total) -> == 10 }")
	if !rep.Passed() {
		t.Errorf("violations = %v / %v", rep.Violations, rep.SpecErrors)
	}
}

func TestExprUsesCurThroughBinary(t *testing.T) {
	st := config.NewStore()
	kv(st, "Pair::p.Lo", "10")
	kv(st, "Pair::p.Hi", "20")
	kv(st, "Pair::p.Mid", "15")
	rep := run(t, st, "compartment Pair { $Mid -> [$Lo, $Hi] }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestRegistryNames(t *testing.T) {
	pn := predicate.Names()
	if len(pn) < 5 {
		t.Errorf("predicate names = %v", pn)
	}
	joined := strings.Join(pn, ",")
	for _, want := range []string{"incidr", "startswith", "hostos", "envequals"} {
		if !strings.Contains(joined, want) {
			t.Errorf("predicate %q missing from %v", want, pn)
		}
	}
	for _, name := range []string{"split", "at", "replace", "len", "abs", "count", "distinct", "union", "first", "last"} {
		if !transform.Known(name) {
			t.Errorf("transformation %q is not registered", name)
		}
	}
	if !transform.Known("split") || transform.Known("nosuch") {
		t.Error("Known misbehaves")
	}
}

func TestPredicateScalarArgErrors(t *testing.T) {
	// List-valued arguments to scalar-expecting extension predicates are
	// rejected at evaluation time with a clear error.
	st := config.NewStore()
	kv(st, "X", "v")
	kv(st, "Args", "a,b") // a list once split
	runExpectSpecError(t, st, "$X -> startswith($Args -> split(','))", "must be a scalar")
}

func TestReachableListSemantics(t *testing.T) {
	env := newEnvWith(t, "db:5432")
	if !predicate.Reachable(env, value.ListOf([]value.V{value.Scalar("db:5432")})) {
		t.Error("singleton reachable list failed")
	}
	if predicate.Reachable(env, value.ListOf([]value.V{value.Scalar("db:5432"), value.Scalar("gone:1")})) {
		t.Error("list with unreachable member should fail")
	}
	if predicate.Reachable(env, value.ListOf(nil)) {
		t.Error("empty list should fail")
	}
}

func newEnvWith(t *testing.T, endpoints ...string) *simenv.Sim {
	t.Helper()
	env := simenv.NewSim()
	for _, e := range endpoints {
		env.AddEndpoint(e)
	}
	return env
}

func TestKeyPositionVariableBinding(t *testing.T) {
	// §4.2.2: variables substitute in the key part of a notation. The
	// RequiredKeys list names parameters that must be set on the fabric.
	st := config.NewStore()
	kv(st, "RequiredKeys[1]", "Timeout")
	kv(st, "RequiredKeys[2]", "Replicas")
	kv(st, "Fabric.Timeout", "30")
	kv(st, "Fabric.Replicas", "")
	src := "if ($RequiredKeys -> nonempty) { $Fabric.$RequiredKeys -> nonempty }"
	rep := run(t, st, src)
	if len(rep.Violations) != 1 {
		t.Fatalf("violations = %v", rep.Violations)
	}
	if rep.Violations[0].Key != "Fabric.Replicas" {
		t.Errorf("violation = %+v", rep.Violations[0])
	}
}
