package config

import "sync/atomic"

// DiscoveryStats counts discovery work for the Figure 4 / §5.2
// ablations. Increments and reads are safe from any goroutine.
type DiscoveryStats struct {
	queries   atomic.Int64
	cacheHits atomic.Int64
	scanned   atomic.Int64
}

// Queries returns the number of Discover/DiscoverNaive calls.
func (s *DiscoveryStats) Queries() int64 { return s.queries.Load() }

// CacheHits returns the number of queries served from the cache.
func (s *DiscoveryStats) CacheHits() int64 { return s.cacheHits.Load() }

// Scanned returns the number of instances examined by naive scans.
func (s *DiscoveryStats) Scanned() int64 { return s.scanned.Load() }

func (s *DiscoveryStats) reset() {
	s.queries.Store(0)
	s.cacheHits.Store(0)
	s.scanned.Store(0)
}
