package server

import (
	"container/list"
	"sync"
)

// lruCache is a string-keyed map bounded by entry count with
// least-recently-used eviction. The server keeps two: the strategy
// cache (fingerprint -> the rendered body of a cache hit) and the
// request index (SHA-256 of a request body -> the fingerprint it
// decoded to). Entries of both are small (a compact strategy JSON plus
// counters, or a key string), so a count bound is an adequate proxy
// for memory.
// Only complete, deterministic results are stored in the strategy
// cache (see Server.run), which is what entitles a hit to stand in for
// a re-run.
type lruCache[V any] struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

// lruEntry is one cache slot.
type lruEntry[V any] struct {
	key string
	val V
}

// newLRUCache builds a cache bounded to max entries (max >= 1).
func newLRUCache[V any](max int) *lruCache[V] {
	return &lruCache[V]{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the value stored under key and marks it recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting the least recently used entry
// beyond the bound.
func (c *lruCache[V]) put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
}

// len reports the current entry count.
func (c *lruCache[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
