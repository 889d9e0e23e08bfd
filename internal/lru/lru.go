// Package lru is a bounded, thread-safe memoization cache from string keys
// to values with least-recently-used eviction. The evaluation engine keeps
// its verdicts in one and the frequency-set store its roll-ups: genetic and
// multi-objective populations revisit a drifting working set of lattice
// nodes and keep their hot nodes resident, while full-lattice sweeps cannot
// grow memory without bound.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU cache. The zero value is not usable; call New.
type Cache[V any] struct {
	mu    sync.Mutex
	max   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type entry[V any] struct {
	key string
	v   V
}

// New returns a cache holding at most max entries (at least one).
func New[V any](max int) *Cache[V] {
	if max < 1 {
		max = 1
	}
	return &Cache[V]{
		max:   max,
		items: make(map[string]*list.Element),
		order: list.New(),
	}
}

// Get returns the cached value and refreshes its recency.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).v, true
}

// Put inserts or replaces a value, evicting the least recently used entry
// when the cache is full. Evicted values stay valid for holders.
func (c *Cache[V]) Put(key string, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).v = v
		c.order.MoveToFront(el)
		return
	}
	c.insert(key, v)
}

// GetOrPut returns the cached value for key, or inserts mk() and returns
// it with found false — one atomic step, so concurrent callers agree on
// which of them created the entry.
func (c *Cache[V]) GetOrPut(key string, mk func() V) (v V, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[V]).v, true
	}
	v = mk()
	c.insert(key, v)
	return v, false
}

func (c *Cache[V]) insert(key string, v V) {
	c.items[key] = c.order.PushFront(&entry[V]{key: key, v: v})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
	}
}

// Each calls fn on every resident value, without refreshing recency. fn
// runs under the cache lock and must not call back into the cache.
func (c *Cache[V]) Each(fn func(V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*entry[V]).v)
	}
}

// Len returns the number of resident entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
