package config

import "sync"

// discoveryCacheBound caps the entries a snapshot's discovery cache holds.
// Past it the cache is flushed wholesale: -watch mode and million-query
// runs must not grow without limit, and the workloads that matter
// re-warm in one round.
const discoveryCacheBound = 16 * 4096

// discoveryCache memoizes canonical pattern → result behind one RWMutex.
// Warm hits share the read lock; the measured load (DESIGN.md §10 item 6)
// never made that lock contended enough for sharding to pay.
type discoveryCache struct {
	mu sync.RWMutex
	m  map[string][]*Instance
}

func (c *discoveryCache) get(key string) ([]*Instance, bool) {
	c.mu.RLock()
	res, ok := c.m[key]
	c.mu.RUnlock()
	return res, ok
}

func (c *discoveryCache) put(key string, res []*Instance) {
	c.mu.Lock()
	if c.m == nil || len(c.m) >= discoveryCacheBound {
		c.m = make(map[string][]*Instance)
	}
	c.m[key] = res
	c.mu.Unlock()
}

func (c *discoveryCache) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

func (c *discoveryCache) entries() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}
