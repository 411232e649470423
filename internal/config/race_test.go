package config

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// raceStore builds a store whose trie has never been built and whose
// discovery cache is cold: the state two concurrent multi-segment
// discoveries race on when buildTrie runs outside the lock. The store is
// deliberately wide (thousands of classes) so trie construction spans
// scheduler preemption points even on a single-CPU host, giving the race
// detector real overlap to observe.
func raceStore() *Store {
	st := NewStore()
	for g := 0; g < 64; g++ {
		for c := 0; c < 64; c++ {
			st.Add(&Instance{
				Key:   K(fmt.Sprintf("CloudGroup::g%d", g), fmt.Sprintf("Cloud::c%d", c), "Timeout"),
				Value: "30",
			})
			st.Add(&Instance{
				Key:   K(fmt.Sprintf("CloudGroup::g%d", g), fmt.Sprintf("Cloud::c%d", c), "ProxyIP"),
				Value: "10.0.0.1",
			})
		}
	}
	return st
}

// coldPatterns mixes exact multi-segment classes (trie walks) with
// wildcard segments (trie fan-out), every one distinct so each goroutine
// takes the cache-miss path.
func coldPatterns() []Pattern {
	pats := []Pattern{
		P("CloudGroup", "Cloud", "Timeout"),
		P("CloudGroup", "Cloud", "ProxyIP"),
		P("CloudGroup", "Cloud", "*"),
		P("*", "Cloud", "Timeout"),
		P("CloudGroup", "*", "ProxyIP"),
		P("Cloud*", "Cloud", "Time*"),
	}
	for g := 0; g < 16; g++ {
		pats = append(pats, P(fmt.Sprintf("CloudGroup::g%d", g), "Cloud", "Timeout"))
	}
	return pats
}

// TestConcurrentColdDiscover is the regression test for the buildTrie
// race: Discover on a cache miss used to (re)build the class-path trie
// without holding the store lock, so two concurrent cold-cache
// discoveries wrote st.trie/st.trieDirty while the other read them. Run
// with -race; the pre-fix store fails with a race report here.
func TestConcurrentColdDiscover(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	for trial := 0; trial < 3; trial++ {
		st := raceStore()
		pats := coldPatterns()
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				// Each worker starts at a different offset so distinct
				// cache-miss discoveries overlap instead of serializing
				// on one cache key.
				for i := 0; i < len(pats); i++ {
					p := pats[(w*3+i)%len(pats)]
					if len(p.Segs) > 1 && len(st.Discover(p)) == 0 && !p.HasVars() {
						// Exact three-segment patterns above always match.
						if !hasGlob(p.Segs[0].Name) && p.Segs[0].Inst == "" {
							t.Errorf("pattern %s discovered nothing", p)
						}
					}
				}
			}(w)
		}
		close(start)
		wg.Wait()
	}
}

// TestConcurrentSealIsIdempotent hammers Snapshot from many goroutines
// on an unsealed store: exactly one seal must happen and every caller
// must get the same pointer.
func TestConcurrentSealIsIdempotent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	st := raceStore()
	const workers = 16
	snaps := make([]*Snapshot, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			snaps[w] = st.Snapshot()
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 1; w < workers; w++ {
		if snaps[w] != snaps[0] {
			t.Fatalf("worker %d sealed a different snapshot", w)
		}
	}
}

// TestConcurrentAddAndDiscover interleaves writers mutating the store
// with readers discovering against it. Every read must see a complete
// pre- or post-mutation world — result sizes from the set of sealed
// states, never a torn index — and the final state must include every
// write.
func TestConcurrentAddAndDiscover(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	st := NewStore()
	st.Add(&Instance{Key: K("Seed", "Timeout"), Value: "1"})

	const writers, readers, perWriter = 4, 4, 200
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				st.Add(&Instance{
					Key:   K(fmt.Sprintf("Cluster::w%d-%d", w, i), "Timeout"),
					Value: "30",
				})
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			last := 0
			for i := 0; i < perWriter; i++ {
				got := len(st.Discover(P("Timeout")))
				if got < 1 || got > 1+writers*perWriter {
					t.Errorf("discover saw %d instances, outside [1, %d]", got, 1+writers*perWriter)
					return
				}
				// Discoveries on one goroutine observe monotonically
				// growing worlds: a later snapshot never loses writes.
				if got < last {
					t.Errorf("discover result shrank: %d then %d", last, got)
					return
				}
				last = got
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := len(st.Discover(P("Timeout"))); got != 1+writers*perWriter {
		t.Fatalf("final discover = %d, want %d", got, 1+writers*perWriter)
	}
}

// TestSnapshotIsolation pins a snapshot, mutates the store, and checks
// the pinned view is frozen: same length, same discovery results, while
// the store's next snapshot sees the new writes.
func TestSnapshotIsolation(t *testing.T) {
	st := NewStore()
	st.Add(&Instance{Key: K("VLAN::v1", "StartIP"), Value: "10.0.1.1"})
	st.Add(&Instance{Key: K("VLAN::v2", "StartIP"), Value: "10.0.2.1"})

	old := st.Snapshot()
	oldRes := old.Discover(P("VLAN", "StartIP"))
	if len(oldRes) != 2 {
		t.Fatalf("pinned discover = %d, want 2", len(oldRes))
	}

	st.Add(&Instance{Key: K("VLAN::v3", "StartIP"), Value: "10.0.3.1"})
	st.Add(&Instance{Key: K("Router::r1", "StartIP"), Value: "10.9.0.1"})

	if old.Len() != 2 {
		t.Errorf("pinned Len = %d after store mutation, want 2", old.Len())
	}
	if got := old.Discover(P("VLAN", "StartIP")); len(got) != 2 {
		t.Errorf("pinned discover = %d after store mutation, want 2", len(got))
	}
	if got := old.Discover(P("StartIP")); len(got) != 2 {
		t.Errorf("pinned leaf discover = %d after store mutation, want 2", len(got))
	}
	if n := len(old.Classes()); n != 1 {
		t.Errorf("pinned classes = %d after store mutation, want 1", n)
	}

	cur := st.Snapshot()
	if cur == old {
		t.Fatal("store mutation did not produce a fresh snapshot")
	}
	if got := cur.Discover(P("StartIP")); len(got) != 4 {
		t.Errorf("fresh discover = %d, want 4", len(got))
	}
}

// TestDiscoveryCacheBounded floods a snapshot with distinct cache-miss
// patterns and checks the cache never exceeds its configured ceiling —
// the watch-mode memory bound.
func TestDiscoveryCacheBounded(t *testing.T) {
	st := NewStore()
	st.Add(&Instance{Key: K("App", "Timeout"), Value: "30"})
	sn := st.Snapshot()

	limit := discoveryCacheBound
	for i := 0; i < limit+limit/2; i++ {
		sn.Discover(P(fmt.Sprintf("NoSuchKey%d", i)))
		if n := sn.CacheEntries(); n > limit {
			t.Fatalf("cache grew to %d entries, bound is %d", n, limit)
		}
	}
	if sn.CacheEntries() == 0 {
		t.Fatal("cache unexpectedly empty after warm-up")
	}
	st.InvalidateCache()
	if n := sn.CacheEntries(); n != 0 {
		t.Fatalf("cache holds %d entries after InvalidateCache, want 0", n)
	}
}

// TestCachedDiscoveryAgreesWithNaive runs the same query mix through the
// cached discovery and the naive scan twice: results must be identical
// and the second round must be served from the cache.
func TestCachedDiscoveryAgreesWithNaive(t *testing.T) {
	st := raceStore()
	st.ResetStats()
	pats := coldPatterns()
	for round := 0; round < 2; round++ {
		for _, p := range pats {
			fast := st.Discover(p)
			slow := st.DiscoverNaive(p)
			if len(fast) != len(slow) {
				t.Fatalf("pattern %s: cached=%d naive=%d", p, len(fast), len(slow))
			}
		}
	}
	if st.Stats.CacheHits() == 0 {
		t.Error("second round produced no cache hits")
	}
}

// TestConcurrentViewCountsEveryQuery has eight goroutines View one warm
// snapshot at once: the unstriped counters must lose no increment, so
// Queries is exactly the number of calls made, all of them hits.
func TestConcurrentViewCountsEveryQuery(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const workers, perWorker = 8, 500
	st := raceStore()
	sn := st.Snapshot()
	qs := make([]Query, 0, len(coldPatterns()))
	for _, p := range coldPatterns() {
		q := NewQuery(p)
		sn.View(q) // warm
		qs = append(qs, q)
	}
	st.ResetStats()
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWorker; i++ {
				sn.View(qs[(w+i)%len(qs)])
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if got := st.Stats.Queries(); got != workers*perWorker {
		t.Errorf("Queries = %d, want %d", got, workers*perWorker)
	}
	if got := st.Stats.CacheHits(); got != workers*perWorker {
		t.Errorf("CacheHits = %d, want %d", got, workers*perWorker)
	}
}
