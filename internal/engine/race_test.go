package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"confvalley/internal/compiler"
	"confvalley/internal/config"
	"confvalley/internal/report"
	"confvalley/internal/simenv"
)

// wideStore builds a store large enough that sealing (trie construction)
// spans scheduler preemption points, with one planted violation so the
// deterministic-merge check below has a violation to order.
func wideStore() *config.Store {
	st := config.NewStore()
	for g := 0; g < 32; g++ {
		for c := 0; c < 32; c++ {
			val := "30"
			if g == 1 && c == 1 {
				val = "999" // out of [1, 60]: the planted violation
			}
			st.Add(&config.Instance{
				Key:   config.K(fmt.Sprintf("CloudGroup::g%d", g), fmt.Sprintf("Cloud::c%d", c), "Timeout"),
				Value: val,
			})
			st.Add(&config.Instance{
				Key:   config.K(fmt.Sprintf("CloudGroup::g%d", g), fmt.Sprintf("Cloud::c%d", c), "ProxyIP"),
				Value: "10.0.0.1",
			})
		}
	}
	return st
}

// wildcardSpecs mixes wildcard-heavy references (trie fan-out on every
// cold discovery) with instance-qualified ones, enough lines that an
// 8-way partition gives every worker work.
func wildcardSpecs() string {
	src := `
$CloudGroup.Cloud.Timeout -> int & [1, 60]
$CloudGroup.*.ProxyIP -> ip
$*.Cloud.Timeout -> int
$CloudGroup.Cloud.Time* -> nonempty
$Cloud*.Cloud.ProxyIP -> nonempty
`
	for g := 0; g < 16; g++ {
		src += fmt.Sprintf("$CloudGroup::g%d.Cloud.Timeout -> int\n", g)
	}
	return src
}

// TestParallelRunColdStoreRace stress-tests a parallel run against a
// store whose snapshot has never been sealed and whose discovery cache is
// cold: all partitions race to seal, then hammer the discovery cache with
// wildcard discoveries. Run with -race. It also checks that parallel
// and sequential runs agree on the planted violation.
func TestParallelRunColdStoreRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	prog, err := compiler.Compile(wildcardSpecs())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}

	var want *report.Report
	for trial := 0; trial < 3; trial++ {
		st := wideStore() // fresh: unsealed snapshot, cold cache
		eng := &Engine{Store: st, Env: simenv.NewSim()}
		eng.Opts.Parallel = 8
		rep := eng.Run(prog)
		if len(rep.SpecErrors) != 0 {
			t.Fatalf("spec errors: %v", rep.SpecErrors)
		}
		if len(rep.Violations) != 1 {
			t.Fatalf("trial %d: violations = %d, want the 1 planted: %v",
				trial, len(rep.Violations), rep.Violations)
		}
		if want == nil {
			want = rep
			continue
		}
		if rep.Violations[0].Key != want.Violations[0].Key ||
			rep.Violations[0].Message != want.Violations[0].Message {
			t.Fatalf("trial %d: parallel merge not deterministic:\n%+v\nvs\n%+v",
				trial, rep.Violations[0], want.Violations[0])
		}
	}

	// The sequential path must agree with the parallel one.
	eng := &Engine{Store: wideStore(), Env: simenv.NewSim()}
	eng.Opts.Parallel = 1
	rep := eng.Run(prog)
	if len(rep.Violations) != 1 ||
		rep.Violations[0].Key != want.Violations[0].Key ||
		rep.Violations[0].Message != want.Violations[0].Message {
		t.Fatalf("sequential run disagrees with parallel run: %+v", rep.Violations)
	}
}

// TestConcurrentEngineRunsShareStore runs several engines concurrently
// against one shared store, each pinning its own view — the
// long-lived-session scenario where validations overlap.
func TestConcurrentEngineRunsShareStore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	st := wideStore()
	prog, err := compiler.Compile(wildcardSpecs())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			eng := &Engine{Store: st, Env: simenv.NewSim()}
			if w%2 == 0 {
				eng.Opts.Parallel = 4
			}
			rep := eng.Run(prog)
			if len(rep.Violations) != 1 {
				t.Errorf("worker %d: violations = %d, want 1", w, len(rep.Violations))
			}
		}(w)
	}
	close(start)
	wg.Wait()
}

// TestParallelRunBorrowedViewIntact: the plan executor reads discovery
// results as borrowed views of the snapshot's cache (config.Snapshot.View)
// instead of copies, so two specs over one pattern, running in different
// partitions, read the very same slice. Run with -race: any write through
// a view — an element store, an in-place sort in an aggregate predicate —
// is a data race here, and is then also caught by comparing the cached
// slice, element for element, with a copy taken before any spec ran.
func TestParallelRunBorrowedViewIntact(t *testing.T) {
	st := wideStore()
	// Both references resolve through the cache key
	// "CloudGroup.Cloud.Timeout": the first as written, the second as its
	// in-compartment candidate. The aggregate predicates are the ones that
	// reorder or bucket their input.
	prog, err := compiler.Compile(`
$CloudGroup.Cloud.Timeout -> int & unique
compartment CloudGroup { $Cloud.Timeout -> consistent & ordered }
`)
	if err != nil {
		t.Fatal(err)
	}
	sn := st.Snapshot()
	pat := config.P("CloudGroup", "Cloud", "Timeout")
	want := sn.Discover(pat) // caller-owned copy of the canonical result
	if len(want) != 32*32 {
		t.Fatalf("fixture: %d instances, want %d", len(want), 32*32)
	}
	eng := &Engine{Store: st, Env: simenv.NewSim()}
	eng.Opts.Parallel = 2
	for round := 0; round < 4; round++ {
		if rep := eng.Run(prog); len(rep.SpecErrors) != 0 {
			t.Fatalf("spec errors: %q", rep.SpecErrors)
		}
	}
	if eng.PinnedSnapshot() != sn {
		t.Fatal("the runs did not read the snapshot under test")
	}
	got := sn.View(config.NewQuery(pat))
	if len(got) != len(want) || cap(got) != len(got) {
		t.Fatalf("cached view: len %d cap %d, want len = cap = %d", len(got), cap(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cached view element %d is %s, was %s before the runs", i, got[i], want[i])
		}
	}
	// Discover still hands out a slice the caller may scribble on.
	own := sn.Discover(pat)
	own[0], own[1] = own[1], own[0]
	if again := sn.View(config.NewQuery(pat)); again[0] != want[0] || again[1] != want[1] {
		t.Error("writing to Discover's result reached the cache")
	}
}
