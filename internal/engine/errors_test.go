package engine

import (
	"strings"
	"testing"
	"time"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/simenv"
)

// runExpectSpecError compiles and runs, expecting exactly one spec error
// containing want.
func runExpectSpecError(t *testing.T, st *config.Store, src, want string) {
	t.Helper()
	prog, err := compiler.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	rep := New(st).Run(prog)
	if len(rep.SpecErrors) != 1 || !strings.Contains(rep.SpecErrors[0], want) {
		t.Errorf("spec errors = %v, want one containing %q", rep.SpecErrors, want)
	}
}

func TestUnboundVariableIsSpecError(t *testing.T) {
	st := config.NewStore()
	kv(st, "Fabric::a.X", "1")
	runExpectSpecError(t, st, "$Fabric::$Nowhere.X -> int", "unbound variable")
}

func TestPipeVarOutsidePipelineIsSpecError(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "1")
	runExpectSpecError(t, st, "$_ -> int", "outside a pipeline")
}

func TestNestedCompartmentDomainRejected(t *testing.T) {
	st := config.NewStore()
	kv(st, "DC::d1.Pool.F", "0.5")
	// A compartment heading a pipeline keeps its grouping.
	prog, err := compiler.Compile("#[DC] $Pool.F# -> trim() -> nonempty")
	if err != nil {
		t.Fatal(err)
	}
	if rep := New(st).Run(prog); !rep.Passed() {
		t.Errorf("piped compartment domain: %v / %v", rep.Violations, rep.SpecErrors)
	}
	// A compartment domain buried anywhere else must fail loudly, not
	// silently pass.
	runExpectSpecError(t, st, "$Pool.F + (#[DC] $Pool.F#) -> [0, 10]", "compartment")
}

func TestArithmeticErrorsSurface(t *testing.T) {
	st := config.NewStore()
	kv(st, "A", "5")
	kv(st, "B", "zero")
	runExpectSpecError(t, st, "$A + $B -> [0, 10]", "not numeric")
	st2 := config.NewStore()
	kv(st2, "A", "5")
	kv(st2, "B", "0")
	runExpectSpecError(t, st2, "$A / $B -> [0, 10]", "division by zero")
}

func TestCartesianArithmeticOutsideCompartment(t *testing.T) {
	st := config.NewStore()
	kv(st, "A[1]", "1")
	kv(st, "A[2]", "2")
	kv(st, "B[1]", "10")
	kv(st, "B[2]", "20")
	// Outside a compartment the product is Cartesian: 4 sums, all within
	// range.
	rep := run(t, st, "$A + $B -> [11, 22]")
	if rep.InstancesChecked != 4 {
		t.Errorf("checked = %d, want 4 (Cartesian)", rep.InstancesChecked)
	}
}

func TestZippedArithmeticInCompartment(t *testing.T) {
	st := config.NewStore()
	kv(st, "Cluster::c1.Used", "40")
	kv(st, "Cluster::c1.Free", "60")
	kv(st, "Cluster::c2.Used", "70")
	kv(st, "Cluster::c2.Free", "30")
	rep := run(t, st, "compartment Cluster { $Used + $Free -> == 100 }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	if rep.InstancesChecked != 2 {
		t.Errorf("checked = %d, want 2 (zipped per cluster)", rep.InstancesChecked)
	}
}

func TestTupleMemberCardinalityError(t *testing.T) {
	st := config.NewStore()
	kv(st, "X", "a-b")
	kv(st, "Many[1]", "1")
	kv(st, "Many[2]", "2")
	runExpectSpecError(t, st, "$X -> [at(0), $Many] -> nonempty", "expected exactly one")
}

func TestForeachArgumentMustBeDomain(t *testing.T) {
	st := config.NewStore()
	kv(st, "X", "a")
	runExpectSpecError(t, st, "$X -> foreach('literal') -> nonempty", "must be a domain")
}

func TestEnumMixedPerElementMembers(t *testing.T) {
	st := config.NewStore()
	kv(st, "Pair::p1.Left", "a:b")
	kv(st, "Pair::p1.Right", "a")
	// Membership where the member set depends on the current element via
	// $_ transforms.
	rep := run(t, st, "compartment Pair { $Right -> {$Left -> split(':') -> at(0)} }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestRangeBoundsResolveToNothing(t *testing.T) {
	st := config.NewStore()
	kv(st, "X", "5")
	rep := run(t, st, "$X -> [$NoLo, $NoHi]")
	if len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0].Message, "no values") {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestRangeCartesianBounds(t *testing.T) {
	st := config.NewStore()
	kv(st, "V", "15")
	kv(st, "Lo[1]", "0")
	kv(st, "Lo[2]", "10")
	kv(st, "Hi[1]", "20")
	// Unequal candidate counts: Cartesian pairs (0,20) and (10,20); the
	// default ∀ requires membership in every pair.
	if rep := run(t, st, "$V -> [$Lo, $Hi]"); !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	// ∃! over the pairs: 15 is in both -> violation under 'one'.
	rep := run(t, st, "$V -> one [$Lo, $Hi]")
	if len(rep.Violations) != 1 {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestPartitionTimes(t *testing.T) {
	st := config.NewStore()
	for i := 0; i < 30; i++ {
		comp := "C" + string(rune('a'+i%5))
		kv(st, comp+".A", "1")
		kv(st, comp+".B", "x")
		kv(st, comp+".C", "true")
	}
	prog, err := compiler.Compile("$A -> int\n$B -> nonempty\n$C -> bool")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Specs) != 3 {
		t.Fatalf("specs = %d", len(prog.Specs))
	}
	eng := New(st)
	// Asking for more partitions than specs clamps: 3 specs never produce
	// an empty fourth partition.
	times := eng.PartitionTimes(prog, 4)
	if len(times) != 3 {
		t.Fatalf("partitions = %d, want clamped to 3 specs", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Error("partition times not sorted")
		}
	}
	var total time.Duration
	for _, d := range times {
		total += d
	}
	if total == 0 {
		t.Error("all partitions reported zero time")
	}
}

func TestBaseRefThroughShapes(t *testing.T) {
	st := config.NewStore()
	kv(st, "Cluster::c1.A", "1")
	kv(st, "Cluster::c1.B", "2")
	// Arithmetic and pipelines under compartments group by the leftmost
	// reference.
	rep := run(t, st, "compartment Cluster { $A + $B -> == 3 }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
	rep = run(t, st, "compartment Cluster { sum($A) -> == 1 }")
	if !rep.Passed() {
		t.Errorf("violations = %v", rep.Violations)
	}
}

func TestStopOnFirstInParallel(t *testing.T) {
	st := config.NewStore()
	for i := 0; i < 10; i++ {
		kv(st, "K"+string(rune('a'+i))+".V", "bad")
	}
	prog, err := compiler.Compile("policy on_violation 'stop'\n$V -> int")
	if err != nil {
		t.Fatal(err)
	}
	eng := Engine{Store: st, Env: simenv.NewSim(), Opts: Options{Parallel: 4}}
	rep := eng.Run(prog)
	if !rep.Stopped {
		t.Error("parallel run should report stopped")
	}
}
