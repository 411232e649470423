package confvalley

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"confvalley/internal/driver"
)

// TestSwapStoreIncremental runs the swap-under-validation scenario with
// one shared incremental lineage: concurrent rounds race on one retained
// RunState while whole store generations are swapped in underneath.
// Every report must still see a single, consistent generation — a
// spliced round may be built from a stale-but-sound baseline, never from
// a torn one. Run with -race; the stress target picks this up via its
// TestSwapStore pattern.
func TestSwapStoreIncremental(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	s := NewSession()
	s.SwapStore(swapGeneration(t, 0))
	prog, err := s.Compile("$Cluster.Replicas -> int & consistent")
	if err != nil {
		t.Fatal(err)
	}

	// round validates the session's current store against the shared
	// lineage; a RunState is immutable, so rounds race on the pointer
	// safely and the last completed writer wins.
	var state atomic.Pointer[RunState]
	round := func() (*Report, error) {
		rep, _, next, err := s.RunProgramIncremental(context.Background(), prog, s.Store(), state.Load())
		if err == nil {
			state.Store(next)
		}
		return rep, err
	}

	const generations = 40
	var done atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for gen := 1; gen <= generations; gen++ {
			if old := s.SwapStore(swapGeneration(t, gen)); old == nil {
				t.Error("SwapStore returned nil previous store")
				return
			}
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs := 0
			for !done.Load() || runs == 0 {
				rep, err := round()
				if err != nil {
					t.Errorf("validate: %v", err)
					return
				}
				if !rep.Passed() {
					t.Errorf("incremental validation saw a torn store generation: %v", rep.Violations)
					return
				}
				if rep.SpecsRun != 1 {
					t.Errorf("SpecsRun = %d, want 1", rep.SpecsRun)
					return
				}
				runs++
			}
		}()
	}
	wg.Wait()

	// A final quiet round, revalidating the last generation with no
	// further swaps: the retained pair must now line up so the round is
	// fully spliced.
	rep, err := round()
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := round()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() || !rep2.Passed() {
		t.Fatalf("post-swap rounds failed: %v / %v", rep.Violations, rep2.Violations)
	}
	if rep2.SpecsReused != 1 {
		t.Errorf("quiet round reused %d specs, want 1", rep2.SpecsReused)
	}
	if state.Load().Report() != rep2 {
		t.Error("the retained state does not hold the latest round's report")
	}

	// The incremental rounds answered from consistent generations; the
	// session store itself must hold the newest.
	st := NewStore()
	data := ""
	for c := 0; c < 8; c++ {
		data += fmt.Sprintf("Cluster::c%d.Replicas = %d\n", c, generations)
	}
	if _, err := driver.LoadInto(st, "kv", []byte(data), "gen", ""); err != nil {
		t.Fatal(err)
	}
	ins, err := s.Instances("Cluster.Replicas")
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 8 {
		t.Fatalf("instances = %d, want 8", len(ins))
	}
	for _, in := range ins {
		if in.Value != fmt.Sprint(generations) {
			t.Fatalf("instance %s = %s, want generation %d", in.Key, in.Value, generations)
		}
	}
}
