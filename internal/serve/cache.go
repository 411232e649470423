package serve

// The service-side result cache: the first layer of the request-caching
// stack (DESIGN.md §12). Each tenant holds one bounded LRU mapping
// (spec name, registration nonce, request body content address — the
// chunk tree digest of address.go) → the completed ValidateResponse,
// plus a single-flight table under the same keys so identical requests
// in flight share one validation instead of racing N copies of the same
// work through admission control.
//
// Invalidation is strict by construction: the key embeds the spec's
// registration nonce, so re-registering a name orphans every cached
// entry for the old program even before the purge removes them, and a
// body byte that differs anywhere changes the content address.

import (
	"strings"
	"sync"

	"confvalley/internal/lru"
)

// resultCache is one tenant's response cache. Its capacity is what
// ResultCacheSize configures. Every lookup counts one hit or one miss.
type resultCache struct {
	mu      sync.Mutex
	items   *lru.Cache[string, *ValidateResponse]
	flights map[string]*flight

	hits, misses, coalesced, evictions int64
}

// flight is one in-progress validation that identical concurrent
// requests wait on instead of re-running.
type flight struct {
	done chan struct{}
	resp *ValidateResponse
	err  error
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		items:   lru.New[string, *ValidateResponse](capacity),
		flights: make(map[string]*flight),
	}
}

// get returns the cached response for a key, counting the hit or miss.
func (c *resultCache) get(key string) (*ValidateResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	resp, ok := c.items.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return resp, ok
}

// join enters the single-flight table: the first caller for a key
// becomes the leader (leader == true) and must call complete exactly
// once; later callers get the same flight to wait on.
func (c *resultCache) join(key string) (f *flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.flights[key]; ok {
		c.coalesced++
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	c.flights[key] = f
	return f, true
}

// complete resolves the leader's flight, waking every coalesced waiter,
// and inserts the response into the LRU when store is set.
func (c *resultCache) complete(key string, f *flight, resp *ValidateResponse, err error, store bool) {
	c.mu.Lock()
	delete(c.flights, key)
	if store && err == nil && resp != nil {
		c.evictions += int64(c.items.Put(key, resp))
	}
	c.mu.Unlock()
	f.resp, f.err = resp, err
	close(f.done)
}

// purge drops every cached entry whose key starts with prefix — the
// re-registration and deletion hook (prefix = spec name + separator).
// In-flight leaders are untouched; their keys carry the old
// registration nonce, so whatever they insert afterwards can never be
// served for the new program.
func (c *resultCache) purge(prefix string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items.DeleteFunc(func(key string) bool { return strings.HasPrefix(key, prefix) })
}

// entries returns the number of cached responses.
func (c *resultCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.items.Len()
}

// ResultCacheStats is one tenant's result-cache counter block.
type ResultCacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// stats returns the counters.
func (c *resultCache) stats() ResultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ResultCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Coalesced: c.coalesced,
		Evictions: c.evictions,
		Entries:   c.items.Len(),
	}
}
