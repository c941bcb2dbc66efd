package server

import (
	"container/list"
	"sync"

	"gstored"
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
	// Query is the compiled query the rows answer: revalidation asks the
	// database whether an update changed its solutions.
	Query *gstored.QueryGraph
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
// Every entry is stamped with the cluster epoch its rows are valid at,
// and Get hits only at that epoch. An epoch advance does not flush the
// cache: Revalidate re-stamps the entries an update provably left
// unchanged and drops the rest (see Server.syncEpoch).
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
	key   string
	epoch uint64 // the epoch res is valid at
	res   *CachedResult
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

// Get returns the entry for key valid at epoch, marking it most recently
// used. An entry stamped with another epoch is a miss.
func (c *Cache) Get(epoch uint64, key string) (*CachedResult, bool) {
	return c.get(epoch, key, true)
}

// recheck is Get for the leader's post-join double-check: a hit counts
// (and refreshes LRU) like any other, but a miss is not re-counted — the
// request's original Get already recorded it.
func (c *Cache) recheck(epoch uint64, key string) (*CachedResult, bool) {
	return c.get(epoch, key, false)
}

func (c *Cache) get(epoch uint64, key string, countMiss bool) (*CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheItem).epoch != epoch {
		if countMiss {
			c.misses++
		}
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).res, true
}

// Peek reports whether Get(epoch, key) would hit, without counting a hit
// or miss and without refreshing the entry's LRU position. The explain
// path uses it to report the disposition a real request would have met
// while leaving the cache's state and statistics untouched.
func (c *Cache) Peek(epoch uint64, key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	return ok && el.Value.(*cacheItem).epoch == epoch
}

// Put stores res under key as valid at epoch, evicting the least recently
// used entry when the cache is full. Storing an existing key refreshes its
// entry, unless that entry is stamped with a newer epoch: a flight that
// began before a swap must not publish its answer over the new epoch's.
func (c *Cache) Put(epoch uint64, key string, res *CachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		if it := el.Value.(*cacheItem); it.epoch <= epoch {
			it.epoch, it.res = epoch, res
			c.ll.MoveToFront(el)
		}
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
	c.items[key] = c.ll.PushFront(&cacheItem{key: key, epoch: epoch, res: res})
}

// Revalidate moves the cache from epoch from to from+1. An entry stamped
// from is re-stamped when keep reports its rows unchanged and dropped
// otherwise; an entry stamped from+1 or later stays; any older one is
// dropped. keep is called once per entry, in turn, without the lock, so
// reads and Puts go on meanwhile; an entry a Put replaced while keep
// judged it is dropped unless the Put stamped it from+1. Revalidate
// returns how many entries keep kept and how many the move dropped.
func (c *Cache) Revalidate(from uint64, keep func(*CachedResult) bool) (kept, dropped int) {
	type judged struct {
		it  *cacheItem
		res *CachedResult
	}
	var due []judged
	c.mu.Lock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if it := el.Value.(*cacheItem); it.epoch == from {
			due = append(due, judged{it, it.res})
		}
	}
	c.mu.Unlock()

	var pass []judged
	for _, j := range due {
		if keep(j.res) {
			pass = append(pass, j)
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, j := range pass {
		if j.it.epoch == from && j.it.res == j.res {
			j.it.epoch = from + 1
			kept++
		}
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if it := el.Value.(*cacheItem); it.epoch <= from {
			c.ll.Remove(el)
			delete(c.items, it.key)
			dropped++
		}
		el = next
	}
	return kept, dropped
}

// Flush drops every resident entry, returning how many were dropped.
// Hit/miss/eviction counters survive (a flush is not an eviction); the
// serving layer flushes when it cannot revalidate across an epoch
// advance, so stale results free their memory instead of waiting out the
// LRU.
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
