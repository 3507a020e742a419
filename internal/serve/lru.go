package serve

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used map. It backs every
// in-memory cache of the server: the outcome layer over the disk cache, the
// analyze fast path's rendered responses, prepared models and canonical org
// specs, and the telemetry reports. Safe for concurrent use.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val any
}

// newLRU creates a cache holding at most capacity entries (capacity must be
// positive).
func newLRU(capacity int) *lruCache {
	if capacity <= 0 {
		panic("serve: LRU capacity must be positive")
	}
	return &lruCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value for key and marks it most recently used.
func (c *lruCache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts or refreshes key, evicting the least recently used entry when
// over capacity.
func (c *lruCache) Put(key string, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, val: val})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// Len returns the number of live entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
