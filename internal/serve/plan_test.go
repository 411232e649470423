package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"confvalley"
	"confvalley/internal/plan"
)

// rotation registers n specs, each its own program, over two tenants
// (alternating, so each stays within the default 128-spec quota) and
// returns validate(i), the i-th validation of a rotation: spec i mod n
// on the body of round i / n. Each round's body is one no earlier round
// sent, so the result cache misses and every validation runs its
// program. Calls must come in order, starting at a round's first.
func rotation(tb testing.TB, n int) func(i int) {
	ctx := context.Background()
	srv := New(Config{})
	type reg struct{ tenant, name string }
	regs := make([]reg, n)
	for i := range regs {
		regs[i] = reg{[2]string{"acme", "globex"}[i%2], fmt.Sprintf("s%03d", i)}
		if _, err := srv.RegisterSpec(regs[i].tenant, regs[i].name, fmt.Sprintf("$app.timeout -> int & [1, %d]", 60+i)); err != nil {
			tb.Fatal(err)
		}
	}
	var body []byte
	return func(i int) {
		if i%n == 0 {
			body = requestBody(tb, kvRequest(fmt.Sprintf("app.timeout = %d\n", 10+i/n)))
		}
		r := regs[i%n]
		resp, err := srv.ValidateBody(ctx, r.tenant, r.name, body)
		if err != nil || resp.Report.SpecsRun != 1 {
			tb.Fatalf("validation %d, %s/%s: %+v, %v", i, r.tenant, r.name, resp, err)
		}
	}
}

// However many programs the service holds, each is lowered once: 129
// specs over two tenants validated in rotation for three rounds lower
// 129 times, not once per validation.
func TestRotationLowersEachProgramOnce(t *testing.T) {
	const specs, rounds = 129, 3
	n0 := plan.Lowerings()
	validate := rotation(t, specs)
	for i := 0; i < rounds*specs; i++ {
		validate(i)
	}
	if n := plan.Lowerings() - n0; n != specs {
		t.Errorf("%d specs validated %d times each lowered %d times, want %d", specs, rounds, n, specs)
	}
}

// BenchmarkRotation times one validation of the rotation above, after a
// first round outside the timer, at 128 and 129 registered specs.
// lowerings/op is 0 at both: no number of live programs makes a warm
// validation lower again.
func BenchmarkRotation(b *testing.B) {
	for _, specs := range []int{128, 129} {
		b.Run(fmt.Sprintf("specs=%d", specs), func(b *testing.B) {
			validate := rotation(b, specs)
			for i := 0; i < specs; i++ {
				validate(i)
			}
			n0 := plan.Lowerings()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				validate(specs + i)
			}
			b.ReportMetric(float64(plan.Lowerings()-n0)/float64(b.N), "lowerings/op")
		})
	}
}

// A registration's program, and with it the plan the program owns,
// leaves memory with the registration: the programs of replaced and
// deleted specs are collected. A re-registration rolled back because the
// journal refused it restores the previous program with its plan, so the
// next validation lowers nothing. (A failed append returns before the
// journal's hooks run, so the program the rollback discards is never
// visible here.)
func TestRetiredProgramsAreCollected(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{StateDir: t.TempDir()})
	if err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	tn, err := srv.tenantFor("acme", true)
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Int32
	// register registers src under name and validates it, so the program
	// has lowered its plan, and returns the program.
	register := func(name, src string) *confvalley.Program {
		t.Helper()
		if _, err := srv.RegisterSpec("acme", name, src); err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ValidateBody(ctx, "acme", name, requestBody(t, kvRequest("app.timeout = 30\n"))); err != nil {
			t.Fatal(err)
		}
		entry, err := tn.spec(name)
		if err != nil {
			t.Fatal(err)
		}
		return entry.prog
	}
	track := func(prog *confvalley.Program) {
		runtime.SetFinalizer(prog, func(*confvalley.Program) { collected.Add(1) })
	}

	const replaced = 4
	for i := 0; i <= replaced; i++ {
		track(register("checks", fmt.Sprintf("$app.timeout -> int & [1, %d]", 60+i)))
	}
	track(register("gone", "$app.timeout -> int"))
	if err := srv.DeleteSpec("acme", "gone"); err != nil {
		t.Fatal(err)
	}
	const retired = replaced + 1

	live, err := tn.spec("checks")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.log.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.RegisterSpec("acme", "checks", "$app.timeout -> int"); err == nil {
		t.Fatal("a registration the journal refused was acknowledged")
	}
	n0 := plan.Lowerings()
	if _, err := srv.ValidateBody(ctx, "acme", "checks", requestBody(t, kvRequest("app.timeout = 31\n"))); err != nil {
		t.Fatal(err)
	}
	if entry, _ := tn.spec("checks"); entry != live {
		t.Error("the rolled-back registration did not restore the previous entry")
	}
	if n := plan.Lowerings() - n0; n != 0 {
		t.Errorf("the restored program lowered %d time(s) after the rollback, want 0", n)
	}

	// Finalizers run on their own goroutine some time after the cycle
	// that found the object dead.
	for i := 0; i < 20 && collected.Load() < retired; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := collected.Load(); got != retired {
		t.Errorf("%d of %d retired programs were collected (the live one must not be): something besides the registry retains a program or its plan, or a plan points back at its program",
			got, retired)
	}
	runtime.KeepAlive(live)
	runtime.KeepAlive(srv)
}

// /statsz counts lowerings, not validations: one registration validated
// on two distinct bodies lowers once.
func TestStatsCountsPlansLowered(t *testing.T) {
	ctx := context.Background()
	_, c := testClient(t, Config{})
	before, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, "timeout", timeoutSpec); err != nil {
		t.Fatal(err)
	}
	for _, data := range []string{"app.timeout = 30\n", "app.timeout = 400\n"} {
		if _, err := c.Validate(ctx, "timeout", kvRequest(data)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.PlansLowered - before.PlansLowered; n != 1 || after.Validations != 2 {
		t.Errorf("plans_lowered moved by %d over %d validations, want 1 over 2", n, after.Validations)
	}
}
