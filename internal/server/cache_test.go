package server

import (
	"fmt"
	"testing"

	"gstored/internal/engine"
)

func entry(n int) *CachedResult {
	return &CachedResult{Rows: []engine.Row{{0}}, Stats: engine.Stats{NumMatches: n}}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(4)
	if _, ok := c.Get(1, "a"); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put(1, "a", entry(1))
	got, ok := c.Get(1, "a")
	if !ok || got.Stats.NumMatches != 1 {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "a", entry(1))
	c.Put(1, "b", entry(2))
	c.Get(1, "a") // refresh a; b becomes least recently used
	c.Put(1, "c", entry(3))
	if _, ok := c.Get(1, "b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get(1, "a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get(1, "c"); !ok {
		t.Error("c should be resident")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "a", entry(1))
	c.Put(1, "a", entry(9))
	got, ok := c.Get(1, "a")
	if !ok || got.Stats.NumMatches != 9 {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(8)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%16)
				if _, ok := c.Get(1, key); !ok {
					c.Put(1, key, entry(i))
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if st := c.Stats(); st.Entries > 8 {
		t.Errorf("cache exceeded capacity: %+v", st)
	}
	_ = done
}

// TestCacheEpochStamps pins the epoch contract of the cache: an entry
// answers only at the epoch it is stamped with; Revalidate re-stamps what
// keep passes, drops what it fails and anything older, and keeps what a
// Put already stamped with the new epoch; and a Put from a flight that
// began before a swap publishes nothing under the new epoch.
func TestCacheEpochStamps(t *testing.T) {
	c := NewCache(8)
	c.Put(1, "keep", entry(1))
	c.Put(1, "drop", entry(2))
	c.Put(0, "stale", entry(3))
	if _, ok := c.Get(2, "keep"); ok {
		t.Fatal("an entry stamped 1 answered at epoch 2")
	}
	if !c.Peek(1, "keep") || c.Peek(2, "keep") {
		t.Fatal("Peek disagrees with the stamps")
	}
	kept, dropped := c.Revalidate(1, func(r *CachedResult) bool { return r.Stats.NumMatches == 1 })
	if kept != 1 || dropped != 2 {
		t.Errorf("Revalidate kept %d and dropped %d, want 1 and 2", kept, dropped)
	}
	if got, ok := c.Get(2, "keep"); !ok || got.Stats.NumMatches != 1 {
		t.Errorf("re-stamped entry at epoch 2 = %v, %v", got, ok)
	}
	if c.Peek(2, "drop") || c.Peek(0, "stale") || c.Stats().Entries != 1 {
		t.Errorf("failed and stale entries survived: %+v", c.Stats())
	}

	// A pre-swap leader finishing after the new epoch's entry landed.
	c.Put(2, "q", entry(20))
	c.Put(1, "q", entry(10))
	if got, ok := c.Get(2, "q"); !ok || got.Stats.NumMatches != 20 {
		t.Errorf("a pre-swap Put replaced the epoch-2 entry: %v, %v", got, ok)
	}
	// Nor does it appear at the new epoch when it lands first.
	c.Put(1, "r", entry(10))
	if _, ok := c.Get(2, "r"); ok {
		t.Error("a pre-swap Put answered at the new epoch")
	}
	// An entry a Put stamped with the new epoch while keep ran stays.
	c.Put(2, "s", entry(30))
	c.Revalidate(2, func(*CachedResult) bool {
		c.Put(3, "s", entry(31))
		return false
	})
	if got, ok := c.Get(3, "s"); !ok || got.Stats.NumMatches != 31 {
		t.Errorf("the new epoch's Put during Revalidate was dropped: %v, %v", got, ok)
	}
}
