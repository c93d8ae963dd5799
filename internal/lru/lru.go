// Package lru is the one least-recently-used cache of the serving
// tier: the per-snapshot result cache (internal/server) and the
// decoded-postings cache (internal/store) are this type under two cost
// functions.
package lru

import "sync"

// Cache maps keys to values under a cost budget, evicting from the
// least recently used end. It is safe for concurrent use, and Get does
// not allocate. Values are handed out as stored: a caller that mutates
// one mutates the cached copy.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	budget int64
	used   int64
	m      map[K]*entry[K, V]
	// root is the sentinel of the intrusive ring: root.next is the most
	// recently used entry, root.prev the least.
	root entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// New returns a cache whose entries' costs sum to at most budget. A
// budget below 1 disables it: nothing is kept, every Get misses.
func New[K comparable, V any](budget int64) *Cache[K, V] {
	c := &Cache[K, V]{budget: budget, m: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value stored under k and marks it most recently used.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if !ok {
		return v, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// Put stores v under k at the given cost (at least 1), replacing any
// value already there, then evicts least recently used entries until
// the budget holds. A value costing more than the whole budget is not
// kept, and neither is the value it would have replaced.
func (c *Cache[K, V]) Put(k K, v V, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[k]; ok {
		c.remove(e)
	}
	if cost > c.budget {
		return
	}
	e := &entry[K, V]{key: k, val: v, cost: cost}
	c.m[k] = e
	c.pushFront(e)
	c.used += cost
	for c.used > c.budget {
		c.remove(c.root.prev)
	}
}

// Len returns the number of entries held.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Used returns the summed cost of the entries held.
func (c *Cache[K, V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

func (c *Cache[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.m, e.key)
	c.used -= e.cost
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}
