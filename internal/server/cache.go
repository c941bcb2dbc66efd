package server

import (
	"container/list"
	"sync"

	"gstored/internal/engine"
)

// CachedResult is one cache entry: the projected rows of a completed
// execution plus the per-stage statistics of the run that produced them.
// Entries are immutable once stored — concurrent readers share them.
type CachedResult struct {
	// Rows are the projected result rows (Result.Project output), in the
	// column order fixed by the canonical key's projection component.
	Rows []engine.Row
	// Stats is the execution that populated the entry; served alongside
	// hits so clients can still see the paper's per-stage numbers.
	Stats engine.Stats
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
}

// Cache is a bounded LRU result cache keyed on the canonicalized compiled
// query (query.CanonicalKey), so textual variants — renamed variables,
// reordered triple patterns — of the same query hit the same entry. It is
// safe for concurrent use.
//
// Admission is the caller's decision: the HTTP layer only Puts results at
// or under Config.CacheMaxRows projected rows, streaming anything larger
// to the client uncached (X-Cache: BYPASS), so entry count bounds memory
// to roughly capacity x CacheMaxRows rows.
type Cache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type cacheItem struct {
	key string
	res *CachedResult
}

// NewCache returns an LRU cache holding at most capacity entries.
// Capacity must be positive.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// Get returns the entry for key, marking it most recently used.
func (c *Cache) Get(key string) (*CachedResult, bool) { return c.get(key, true) }

// recheck is Get for the leader's post-join double-check: a hit counts
// (and refreshes LRU) like any other, but a miss is not re-counted — the
// request's original Get already recorded it.
func (c *Cache) recheck(key string) (*CachedResult, bool) { return c.get(key, false) }

func (c *Cache) get(key string, countMiss bool) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// Peek reports whether key is resident without counting a hit or miss
// and without refreshing the entry's LRU position. The explain path uses
// it to report the disposition a real request would have met while
// leaving the cache's state and statistics untouched.
func (c *Cache) Peek(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put stores res under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its entry.
func (c *Cache) Put(key string, res *CachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheItem).res = res
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.capacity {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.items, oldest.Value.(*cacheItem).key)
			c.evictions++
		}
	}
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, res: res})
}

// Flush drops every resident entry, returning how many were dropped.
// Hit/miss/eviction counters survive (a flush is not an eviction); the
// serving layer flushes when the cluster epoch advances so stale
// results free their memory instead of waiting out the LRU.
func (c *Cache) Flush() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.items = make(map[string]*list.Element, c.capacity)
	return n
}

// Stats snapshots the hit/miss/eviction counters and current size.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Entries: c.ll.Len()}
}
