package server

import (
	"sync"
	"sync/atomic"

	"gstored"
)

// flight is one in-progress engine execution shared between its leader
// (the request actually running the query) and any waiters (concurrent
// identical queries that arrived while it ran). The leader sets exactly
// one of res (a live engine result), rows (a cache entry it discovered
// after winning leadership), or err, then finishes the flight; done is
// closed exactly once and the payload is immutable afterwards, so
// waiters read it without locking. waiters counts coalesced joins — the
// leader consults it to decide whether its own client's disconnect may
// still cancel the execution.
type flight struct {
	done    chan struct{}
	res     *gstored.Result
	rows    []gstored.Row
	err     error
	waiters atomic.Int64
}

// flightGroup coalesces concurrent executions of the same canonical
// query (singleflight): the first join for a key becomes the leader and
// must call finish exactly once; joins arriving before that share the
// leader's outcome instead of running the engine again. Keys are the
// same canonical cache keys the result cache uses, so N concurrent
// identical cold queries cost one engine execution.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// join returns the flight for key and whether the caller is its leader.
// A non-leader join increments the flight's waiter count before
// returning, so the leader observes the waiter as soon as it exists.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = make(map[string]*flight)
	}
	if fl, ok := g.m[key]; ok {
		fl.waiters.Add(1)
		return fl, false
	}
	fl := &flight{done: make(chan struct{})}
	g.m[key] = fl
	return fl, true
}

// finish retires the flight and wakes its waiters. The leader must set
// the flight's payload (res/rows/err) and make the result visible to
// late arrivals (the cache Put) before calling finish: once the key is
// removed, the next join starts a fresh engine run. The key is removed
// only while it still maps to fl — an abandoned flight was retired at
// its cancellation, and the entry there now may belong to its successor.
func (g *flightGroup) finish(key string, fl *flight) {
	g.mu.Lock()
	if g.m[key] == fl {
		delete(g.m, key)
	}
	g.mu.Unlock()
	close(fl.done)
}

// pending reports whether an execution for key is currently in flight.
// Read-only: the explain path uses it to report that a real request
// would have coalesced, without joining (and so without delaying or
// being delayed by) the flight.
func (g *flightGroup) pending(key string) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.m[key]
	return ok
}

// cancelIfUnwaited abandons fl — invokes cancel and retires the flight
// from the group — only when it has no waiters, serialized against join
// (which increments the count under the same lock): a concurrent joiner
// either becomes visible here, and the run survives the leader's
// disconnect, or finds the key free and leads a fresh run of its own. No
// request can join a flight whose execution is already canceled.
func (g *flightGroup) cancelIfUnwaited(key string, fl *flight, cancel func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if fl.waiters.Load() == 0 {
		cancel()
		if g.m[key] == fl {
			delete(g.m, key)
		}
	}
}
