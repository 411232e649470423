package lru

import (
	"strings"
	"testing"
)

func TestCache(t *testing.T) {
	c := New[string, int](2)
	if n := c.Put("a", 1) + c.Put("b", 2); n != 0 || c.Len() != 2 {
		t.Fatalf("filling to capacity evicted %d, len %d", n, c.Len())
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %t", v, ok)
	}
	// b is now least recently used; a third key evicts it, and only it.
	if n := c.Put("c", 3); n != 1 {
		t.Fatalf("Put past capacity evicted %d, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived eviction")
	}
	// Refreshing a key replaces its value, counts as a use, evicts nothing.
	if n := c.Put("a", 10); n != 0 {
		t.Fatalf("refresh evicted %d", n)
	}
	c.Put("d", 4) // evicts c, the entry not touched since
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Errorf("refreshed entry = %d, %t; want 10, true", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Error("refresh did not count as a use: c outlived a")
	}

	c.DeleteFunc(func(k string) bool { return strings.HasPrefix(k, "a") })
	if _, ok := c.Get("a"); ok || c.Len() != 1 {
		t.Errorf("DeleteFunc left a=%t, len %d", ok, c.Len())
	}
	if n := c.Put("e", 5); n != 0 || c.Len() != 2 {
		t.Errorf("after DeleteFunc, Put evicted %d with len %d", n, c.Len())
	}
}
