package engine

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, thread-safe memoization cache from lattice-node
// keys to evaluations. Eviction is least-recently-used so that genetic and
// multi-objective populations — which revisit a drifting working set of
// nodes — keep their hot nodes resident while full-lattice sweeps cannot
// grow memory without bound.
type lruCache struct {
	mu    sync.Mutex
	max   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type cacheEntry struct {
	key string
	ev  *Evaluation
}

func newLRUCache(max int) *lruCache {
	return &lruCache{
		max:   max,
		items: make(map[string]*list.Element),
		order: list.New(),
	}
}

// get returns the cached evaluation and refreshes its recency, or nil.
func (c *lruCache) get(key string) *Evaluation {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).ev
}

// put inserts an evaluation, evicting the least recently used entry when
// the cache is full. Evicted evaluations stay valid for holders.
func (c *lruCache) put(key string, ev *Evaluation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).ev = ev
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, ev: ev})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// each calls fn on every resident evaluation, without refreshing recency.
// fn runs under the cache lock and must not call back into the cache.
func (c *lruCache) each(fn func(*Evaluation)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		fn(el.Value.(*cacheEntry).ev)
	}
}

// len returns the number of resident entries.
func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
