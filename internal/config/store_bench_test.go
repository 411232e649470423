package config

import (
	"fmt"
	"testing"
)

// benchStore builds the wide store the scaling benchmark queries.
func benchStore() *Store {
	st := NewStore()
	for g := 0; g < 32; g++ {
		for c := 0; c < 32; c++ {
			st.Add(&Instance{
				Key:   K(fmt.Sprintf("CloudGroup::g%d", g), fmt.Sprintf("Cloud::c%d", c), "Timeout"),
				Value: "30",
			})
		}
	}
	return st
}

// benchPatterns is the warm query mix: fully-qualified references whose
// results are single instances, matching the skew of real validation
// runs where the same few patterns repeat millions of times (§5.2).
// Small results keep the copy out of the measurement, so the benchmark
// isolates the cache lookup itself.
func benchPatterns() []Pattern {
	var pats []Pattern
	for g := 0; g < 16; g++ {
		pats = append(pats, P(fmt.Sprintf("CloudGroup::g%d", g), fmt.Sprintf("Cloud::c%d", g), "Timeout"))
	}
	return pats
}

// BenchmarkWarmDiscovery measures warm-cache discovery throughput with
// GOMAXPROCS goroutines hitting one snapshot (run it with -cpu 1,2,...).
// DESIGN.md §10 item 6 records it beside the sharded cache it replaced.
func BenchmarkWarmDiscovery(b *testing.B) {
	st := benchStore()
	pats := benchPatterns()
	sn := st.Snapshot()
	for _, p := range pats { // warm the cache
		sn.Discover(p)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if got := sn.Discover(pats[i%len(pats)]); len(got) == 0 {
				b.Error("warm discovery returned nothing")
				return
			}
			i++
		}
	})
}
