// Package lru is the repository's one bounded least-recently-used map.
// It holds no lock and no counters: its one owner, serve's result cache,
// guards it with the mutex that already guards its own hit/miss
// accounting.
package lru

import "container/list"

// Cache maps keys to values, evicting the least recently used entry
// beyond its capacity. Get and Put both count as a use.
type Cache[K comparable, V any] struct {
	cap   int
	ll    *list.List // front = most recent
	items map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache bounded to capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{cap: capacity, ll: list.New(), items: make(map[K]*list.Element, capacity)}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put inserts or refreshes key as the most recently used entry and
// reports how many entries it evicted to stay within capacity.
func (c *Cache[K, V]) Put(key K, val V) (evicted int) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry[K, V]).val = val
		return 0
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry[K, V]).key)
		evicted++
	}
	return evicted
}

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return c.ll.Len() }

// DeleteFunc removes every entry whose key satisfies del.
func (c *Cache[K, V]) DeleteFunc(del func(key K) bool) {
	for key, el := range c.items {
		if del(key) {
			c.ll.Remove(el)
			delete(c.items, key)
		}
	}
}
