package ingest

import (
	"sync"

	"confvalley/internal/config"
	"confvalley/internal/lru"
)

// SnapshotCache is a bounded LRU of parsed request payloads, keyed by
// content address (CombineDigests over the request's SourceDigests). A
// hit returns the previously sealed store — same pointer, same
// snapshot — so a repeated payload skips fetch, parse and seal
// entirely, and a subsequent Snapshot.Diff against state derived from
// the same entry is the O(1) identity case.
//
// Entries are immutable by contract: callers must never mutate a cached
// store or its LoadReport after Put. The runner guarantees this by only
// caching payload-only loads (no server-side sources, no spec-driven
// load commands that would append to the store mid-run) whose report is
// clean — a degraded parse depends on the loader's last-good history,
// not just the bytes, and so is not content-addressable.
type SnapshotCache struct {
	mu      sync.Mutex
	entries *lru.Cache[string, snapEntry]

	hits, misses, evictions int64
}

type snapEntry struct {
	store *config.Store
	rep   *LoadReport
}

// NewSnapshotCache returns a cache bounded to capacity entries; zero or
// negative capacity returns nil, and a nil cache is a valid always-miss
// cache.
func NewSnapshotCache(capacity int) *SnapshotCache {
	if capacity <= 0 {
		return nil
	}
	return &SnapshotCache{entries: lru.New[string, snapEntry](capacity)}
}

// Get returns the cached store and load report for a content address.
func (c *SnapshotCache) Get(key string) (*config.Store, *LoadReport, bool) {
	if c == nil {
		return nil, nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.Get(key)
	if !ok {
		c.misses++
		return nil, nil, false
	}
	c.hits++
	return e.store, e.rep, true
}

// Put inserts (or refreshes) an entry, evicting the least recently used
// entry beyond capacity.
func (c *SnapshotCache) Put(key string, st *config.Store, rep *LoadReport) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions += int64(c.entries.Put(key, snapEntry{store: st, rep: rep}))
}

// Len returns the number of cached entries.
func (c *SnapshotCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.Len()
}

// SnapshotCacheStats is a point-in-time counter snapshot.
type SnapshotCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// Stats returns the cache counters; zero for a nil cache.
func (c *SnapshotCache) Stats() SnapshotCacheStats {
	if c == nil {
		return SnapshotCacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return SnapshotCacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.entries.Len()}
}
