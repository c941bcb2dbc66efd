package server

import (
	"container/list"
	"sync"

	"gstored"
)

// CacheStats is a point-in-time snapshot of the result-cache counters.
type CacheStats struct {
	Hits, Misses, Evictions int64
	Entries                 int
	// MemoHits counts reads the request memo answered without a parse.
	MemoHits int64
}

// entry is one canonical query at one cluster epoch. It is in flight
// from the acquire that creates it until its leader settles it, then
// resident in the LRU or gone from the table. done closes at the settle;
// res and err are written before it and immutable afterwards, so a
// waiter or a hit reads them without the lock.
type entry struct {
	key     string
	epoch   uint64 // the epoch the request that created it was admitted under
	done    chan struct{}
	waiters int           // requests coalesced onto the flight; guarded by the table's mutex
	el      *list.Element // the entry's LRU position while resident
	res     *gstored.Result
	err     error
}

// claim is what acquire tells a request to do with the entry it returns.
type claim int

const (
	claimLead claim = iota // run the engine and settle the entry
	claimHit               // resident: answer from entry.res
	claimWait              // in flight: wait on entry.done, then answer from it
)

// memoRead is what a read's request text alone decides, parsed once and
// shared by every repeat of the text: the engine and the serializers
// only read it.
type memoRead struct {
	q      *gstored.QueryGraph
	key    string   // Server.key(q): the entry the read answers from
	names  []string // projected column names
	format string   // the ?format= parameter, as sent
}

// resultTable is the serving layer's one map from query key (Server.key,
// the canonicalized compiled query) to entry: a bounded LRU result cache
// and singleflight in one, under one mutex. An entry answers, and
// coalesces, only requests of its own epoch, so a request admitted after
// a swap never joins a flight that began before it nor hits a result
// computed before it, unless revalidate has proved that result unchanged.
// Capacity 0 keeps nothing resident and counts no hits or misses, but
// flights still coalesce.
//
// Beside it, under the same lock, the table keeps the request memo: a
// second map, from a read's request text (Server.memoKey) to its
// memoRead, of at most capacity texts; a full memo forgets an arbitrary
// one. The memo has no epoch: a memoized parse holds no placeholder, and
// dictionary IDs never change once assigned, so the parse of a text
// stays its parse across every update and repartition. Texts that
// canonicalize alike map to one key and share its entry.
type resultTable struct {
	mu        sync.Mutex
	capacity  int
	m         map[string]*entry
	ll        *list.List // resident entries, front = most recently used
	hits      int64
	misses    int64
	evictions int64
	memo      map[string]*memoRead
	memoHits  int64
}

func newResultTable(capacity int) *resultTable {
	return &resultTable{capacity: max(capacity, 0), m: make(map[string]*entry), ll: list.New(), memo: make(map[string]*memoRead)}
}

// recall answers a repeated read: under one lock it finds text's memo
// entry and acquires that entry's key at epoch, as acquire does. A text
// the memo does not hold returns a nil memoRead and acquires nothing.
func (t *resultTable) recall(epoch uint64, text string) (*memoRead, *entry, claim) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.memo[text]
	if m == nil {
		return nil, nil, claimLead
	}
	t.memoHits++
	e, c := t.acquireLocked(epoch, m.key)
	return m, e, c
}

// remember memoizes the read m under its request text, forgetting an
// arbitrary text when a new one finds the memo full.
func (t *resultTable) remember(text string, m *memoRead) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.memo[text]; !ok && len(t.memo) >= t.capacity {
		for k := range t.memo {
			delete(t.memo, k)
			break
		}
	}
	t.memo[text] = m
}

// acquire returns the entry a request admitted at epoch answers from
// and what to do with it: a resident entry of that epoch is a hit, an
// in-flight one is waited on, and anything else is led — a new in-flight
// entry replaces an older-epoch one. A request behind the epoch of the
// entry it finds leads an entry of its own that the table never maps.
func (t *resultTable) acquire(epoch uint64, key string) (*entry, claim) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.acquireLocked(epoch, key)
}

// acquireLocked is acquire with the lock held.
func (t *resultTable) acquireLocked(epoch uint64, key string) (*entry, claim) {
	e, ok := t.m[key]
	if ok && e.epoch == epoch && e.el != nil {
		t.hits++
		t.ll.MoveToFront(e.el)
		return e, claimHit
	}
	if t.capacity > 0 {
		t.misses++
	}
	if ok && e.epoch == epoch {
		e.waiters++
		return e, claimWait
	}
	fresh := &entry{key: key, epoch: epoch, done: make(chan struct{})}
	if ok && e.epoch > epoch {
		return fresh, claimLead
	}
	if ok && e.el != nil {
		t.ll.Remove(e.el)
	}
	t.m[key] = fresh
	return fresh, claimLead
}

// settle records the leader's outcome and wakes the waiters. A cacheable
// success of an entry the table still maps becomes resident, evicting
// the least recently used entry when the table is full; any other entry
// leaves the table.
func (t *resultTable) settle(e *entry, res *gstored.Result, err error, cacheable bool) {
	t.mu.Lock()
	e.res, e.err = res, err
	if t.m[e.key] == e {
		if err != nil || !cacheable || t.capacity == 0 {
			delete(t.m, e.key)
		} else {
			if t.ll.Len() >= t.capacity {
				t.drop(t.ll.Back().Value.(*entry))
				t.evictions++
			}
			e.el = t.ll.PushFront(e)
		}
	}
	t.mu.Unlock()
	close(e.done)
}

// drop removes a resident entry; the caller holds the lock.
func (t *resultTable) drop(e *entry) {
	t.ll.Remove(e.el)
	delete(t.m, e.key)
}

// abandon cancels the in-flight entry e and takes it out of the table,
// but only while no request waits on it. Serialized against acquire,
// which counts waiters under the same lock: a concurrent request either
// becomes visible here, and the run survives its leader's disconnect, or
// finds the key free and leads a fresh run. No request can join a flight
// whose execution is already canceled.
func (t *resultTable) abandon(e *entry, cancel func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e.waiters == 0 {
		cancel()
		if t.m[e.key] == e {
			delete(t.m, e.key)
		}
	}
}

// peek reports what acquire(epoch, key) would answer — a resident hit or
// a flight to wait on — without counting, refreshing the LRU or joining.
func (t *resultTable) peek(epoch uint64, key string) (resident, inFlight bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.m[key]
	if !ok || e.epoch != epoch {
		return false, false
	}
	return e.el != nil, e.el == nil
}

// revalidate moves the resident entries from epoch from to from+1. An
// entry stamped from is re-stamped when keep reports its result
// unchanged and dropped otherwise; one stamped from+1 or later stays;
// any older one is dropped. keep is called once per entry, in turn,
// without the lock, so requests go on meanwhile; an entry a request
// replaced while keep judged it is not re-stamped. In-flight entries
// settle under their own epoch. revalidate returns how many entries keep
// kept and how many the move dropped.
func (t *resultTable) revalidate(from uint64, keep func(*gstored.Result) bool) (kept, dropped int) {
	var due []*entry
	t.mu.Lock()
	for el := t.ll.Front(); el != nil; el = el.Next() {
		if e := el.Value.(*entry); e.epoch == from {
			due = append(due, e)
		}
	}
	t.mu.Unlock()

	var pass []*entry
	for _, e := range due {
		if keep(e.res) {
			pass = append(pass, e)
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	for _, e := range pass {
		if t.m[e.key] == e && e.epoch == from {
			e.epoch = from + 1
			kept++
		}
	}
	for el := t.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry); e.epoch <= from {
			t.drop(e)
			dropped++
		}
		el = next
	}
	return kept, dropped
}

// flush drops every resident entry. Counters survive (a flush is not an
// eviction), and in-flight entries settle as usual. The serving layer
// flushes when it cannot revalidate across an epoch advance, so stale
// results free their memory instead of waiting out the LRU.
func (t *resultTable) flush() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for el := t.ll.Front(); el != nil; el = el.Next() {
		delete(t.m, el.Value.(*entry).key)
	}
	t.ll.Init()
}

// stats snapshots the hit/miss/eviction counters and the resident count.
func (t *resultTable) stats() CacheStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return CacheStats{Hits: t.hits, Misses: t.misses, Evictions: t.evictions, Entries: t.ll.Len(), MemoHits: t.memoHits}
}
