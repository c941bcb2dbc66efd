package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gstored"
)

// inFlight counts the table's in-flight entries.
func (t *resultTable) inFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.m {
		if e.el == nil {
			n++
		}
	}
	return n
}

// result is an engine result carrying n matches, to tell entries apart.
func result(n int) *gstored.Result {
	return &gstored.Result{Stats: gstored.Stats{NumMatches: n}}
}

// put leads key at epoch and settles a cacheable success carrying n.
func put(t *testing.T, tb *resultTable, epoch uint64, key string, n int) {
	t.Helper()
	e, c := tb.acquire(epoch, key)
	if c != claimLead {
		t.Fatalf("acquire(%d, %q) = %v, want to lead", epoch, key, c)
	}
	tb.settle(e, result(n), nil, true)
}

// hit reports the matches of the entry acquire(epoch, key) hits, or -1
// when it does not hit (a led entry is settled uncacheable again).
func hit(tb *resultTable, epoch uint64, key string) int {
	e, c := tb.acquire(epoch, key)
	switch c {
	case claimHit:
		return e.res.Stats.NumMatches
	case claimLead:
		tb.settle(e, nil, errors.New("probe"), false)
	}
	return -1
}

func TestCacheHitMissCounters(t *testing.T) {
	tb := newResultTable(4)
	put(t, tb, 1, "a", 1)
	if got := hit(tb, 1, "a"); got != 1 {
		t.Fatalf("hit(a) = %d, want 1", got)
	}
	if st := tb.stats(); st != (CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Errorf("stats = %+v", st)
	}
	// A waiter counts a miss like its leader.
	e, _ := tb.acquire(1, "b")
	if _, c := tb.acquire(1, "b"); c != claimWait {
		t.Fatalf("second acquire of an in-flight key = %v, want to wait", c)
	}
	tb.settle(e, result(2), nil, true)
	if st := tb.stats(); st.Misses != 3 || st.Hits != 1 {
		t.Errorf("stats after a coalesced miss = %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	tb := newResultTable(2)
	put(t, tb, 1, "a", 1)
	put(t, tb, 1, "b", 2)
	hit(tb, 1, "a") // refresh a; b becomes least recently used
	put(t, tb, 1, "c", 3)
	if hit(tb, 1, "b") >= 0 {
		t.Error("b should have been evicted")
	}
	if hit(tb, 1, "a") != 1 {
		t.Error("a should have survived (recently used)")
	}
	if hit(tb, 1, "c") != 3 {
		t.Error("c should be resident")
	}
	if st := tb.stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCachePutRefreshesExisting: a newer epoch's leader replaces the
// key's resident entry in place — no eviction, one entry.
func TestCachePutRefreshesExisting(t *testing.T) {
	tb := newResultTable(2)
	put(t, tb, 1, "a", 1)
	put(t, tb, 2, "a", 9)
	if got := hit(tb, 2, "a"); got != 9 {
		t.Fatalf("hit(a) = %d, want 9", got)
	}
	if st := tb.stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	tb := newResultTable(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e, c := tb.acquire(1, fmt.Sprintf("k%d", (g+i)%16))
				switch c {
				case claimLead:
					tb.settle(e, result(i), nil, true)
				case claimWait:
					<-e.done
				}
			}
		}()
	}
	wg.Wait()
	if st := tb.stats(); st.Entries > 8 {
		t.Errorf("table exceeded capacity: %+v", st)
	}
	if n := tb.inFlight(); n != 0 {
		t.Errorf("%d entries left in flight", n)
	}
}

// TestCacheEpochStamps pins the epoch contract of the table: an entry
// answers only at its epoch; revalidate re-stamps what keep passes, drops
// what it fails and anything older, and keeps what a request already
// settled under the new epoch; and a leader that began before a swap
// publishes nothing under the new epoch, however late it settles.
func TestCacheEpochStamps(t *testing.T) {
	tb := newResultTable(8)
	put(t, tb, 1, "keep", 1)
	put(t, tb, 1, "drop", 2)
	put(t, tb, 0, "stale", 3)
	if r, _ := tb.peek(1, "keep"); !r {
		t.Fatal("peek misses the entry at its own epoch")
	}
	if r, f := tb.peek(2, "keep"); r || f {
		t.Fatal("peek finds an entry stamped 1 at epoch 2")
	}
	kept, dropped := tb.revalidate(1, func(r *gstored.Result) bool { return r.Stats.NumMatches == 1 })
	if kept != 1 || dropped != 2 {
		t.Errorf("revalidate kept %d and dropped %d, want 1 and 2", kept, dropped)
	}
	if got := hit(tb, 2, "keep"); got != 1 {
		t.Errorf("re-stamped entry at epoch 2 = %d, want 1", got)
	}
	if r, _ := tb.peek(2, "drop"); r || tb.stats().Entries != 1 {
		t.Errorf("failed and stale entries survived: %+v", tb.stats())
	}

	// A pre-swap leader settling after the new epoch's entry landed.
	old, _ := tb.acquire(1, "q")
	put(t, tb, 2, "q", 20)
	tb.settle(old, result(10), nil, true)
	if got := hit(tb, 2, "q"); got != 20 {
		t.Errorf("a pre-swap settle replaced the epoch-2 entry: hit = %d", got)
	}
	// A request behind the entry it finds leads on its own and leaves the
	// table alone.
	behind, c := tb.acquire(1, "q")
	if c != claimLead {
		t.Fatalf("a pre-swap request on a post-swap entry = %v, want to lead", c)
	}
	tb.settle(behind, result(11), nil, true)
	if got := hit(tb, 2, "q"); got != 20 {
		t.Errorf("a behind request's settle replaced the epoch-2 entry: hit = %d", got)
	}
	// Nor does a pre-swap result appear at the new epoch when it lands
	// first.
	put(t, tb, 1, "r", 10)
	if hit(tb, 2, "r") >= 0 {
		t.Error("a pre-swap settle answered at the new epoch")
	}
	// An entry a request settled under the new epoch while keep ran stays.
	put(t, tb, 2, "s", 30)
	tb.revalidate(2, func(r *gstored.Result) bool {
		if r.Stats.NumMatches == 30 {
			put(t, tb, 3, "s", 31)
		}
		return false
	})
	if got := hit(tb, 3, "s"); got != 31 {
		t.Errorf("the new epoch's entry settled during revalidate = %d, want 31", got)
	}
}

// TestAbandonedFlightIsRetired: once a leader with no waiters has been
// canceled, its entry must be gone from the table — the engine takes a
// while to unwind before the settle, and a request arriving in that
// window would otherwise wait on a doomed run and inherit a cancellation
// that was never its own. The next request leads a fresh entry, and the
// old leader's late settle must not retire its successor. At capacity 0
// flights still coalesce, and nothing is counted or kept.
func TestAbandonedFlightIsRetired(t *testing.T) {
	tb := newResultTable(0)
	old, c := tb.acquire(1, "k")
	if c != claimLead {
		t.Fatal("the first request does not lead")
	}
	canceled := false
	tb.abandon(old, func() { canceled = true })
	if !canceled {
		t.Fatal("an unwaited flight was not canceled")
	}

	next, c := tb.acquire(1, "k")
	if c != claimLead || next == old {
		t.Fatalf("acquire after the abandonment: %v, same entry = %v; want a fresh entry to lead", c, next == old)
	}
	if old.waiters != 0 {
		t.Errorf("abandoned flight gained %d waiters", old.waiters)
	}

	tb.settle(old, nil, context.Canceled, false) // the abandoned run has unwound
	if _, f := tb.peek(1, "k"); !f {
		t.Fatal("the old leader's settle retired the new leader's entry")
	}
	if e, c := tb.acquire(1, "k"); c != claimWait || e != next {
		t.Error("a request during the new flight did not coalesce onto it")
	}

	// A waited flight survives its leader's disconnect and stays joinable.
	canceled = false
	tb.abandon(next, func() { canceled = true })
	if _, f := tb.peek(1, "k"); canceled || !f {
		t.Errorf("a waited flight was abandoned: canceled = %v, in flight = %v", canceled, f)
	}
	tb.settle(next, result(1), nil, true)
	if r, f := tb.peek(1, "k"); r || f {
		t.Error("capacity 0 kept the settled entry")
	}
	if st := tb.stats(); st != (CacheStats{}) {
		t.Errorf("capacity 0 counted %+v", st)
	}
}

// TestFlightDoesNotCrossUpdate: a request admitted after an update must
// not join the flight of an identical query admitted before it, and the
// pre-update leader settling while the post-update flight is pending
// must neither retire that flight nor leave its own result resident: the
// post-update result is what the next request hits.
func TestFlightDoesNotCrossUpdate(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), Config{Workers: 1, MaxInFlight: 32, Writable: true})
	q, err := s.db.ParseReadOnly(knowsChain)
	if err != nil {
		t.Fatal(err)
	}
	key := s.key(q)

	// park holds the scheduler's only worker until the returned release
	// is called (or the test ends); calls queue behind it in arrival
	// order.
	park := func(admitted int64) func() {
		ch := make(chan struct{})
		release := sync.OnceFunc(func() { close(ch) })
		t.Cleanup(release)
		go s.sched.Run(context.Background(), func(context.Context) error {
			<-ch
			return nil
		})
		waitFor(t, "the parked call's admission", func() bool { return s.sched.InFlight() == admitted })
		time.Sleep(10 * time.Millisecond) // let it queue
		return release
	}
	send := func() chan reply1 {
		out := make(chan reply1, 1)
		go func() {
			resp, doc := getJSONc(ts.URL, knowsChain)
			if resp == nil {
				out <- reply1{err: fmt.Errorf("request failed")}
				return
			}
			out <- reply1{state: resp.Header.Get("X-Cache"), bindings: len(doc.Results.Bindings)}
		}()
		return out
	}

	releaseFirst := park(1)
	e0 := s.db.Epoch()
	pre := send()
	waitFor(t, "the pre-update flight", func() bool { _, f := s.results.peek(e0, key); return f })
	waitFor(t, "the pre-update leader's admission", func() bool { return s.sched.InFlight() == 2 })
	time.Sleep(10 * time.Millisecond)
	releaseSecond := park(3)

	// dave->carol gives knowsChain a second row.
	if resp, _ := postUpdate(t, ts.URL, `INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/carol> }`); resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	e1 := s.db.Epoch()
	post := send()
	waitFor(t, "the post-update flight", func() bool { _, f := s.results.peek(e1, key); return f })
	if n := s.metrics.Coalesced.Load(); n != 0 {
		t.Fatalf("%d requests coalesced across the update", n)
	}

	// The pre-update leader runs and settles; the post-update one waits
	// behind the second parked call.
	releaseFirst()
	if rp := <-pre; rp.err != nil || rp.state != "MISS" {
		t.Fatalf("pre-update request: %+v, want a MISS", rp)
	}
	if _, f := s.results.peek(e1, key); !f {
		t.Error("the pre-update leader's settle retired the post-update flight")
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Errorf("the pre-update result became resident: %+v", st)
	}

	releaseSecond()
	if rp := <-post; rp.err != nil || rp.state != "MISS" || rp.bindings != 2 {
		t.Fatalf("post-update request: %+v, want a MISS with 2 bindings", rp)
	}
	if resp, doc := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "HIT" || len(doc.Results.Bindings) != 2 {
		t.Errorf("after both settled: X-Cache %q with %d bindings, want a HIT with 2", resp.Header.Get("X-Cache"), len(doc.Results.Bindings))
	}
	if runs := s.metrics.EngineRuns.Load(); runs != 2 {
		t.Errorf("engine runs = %d, want 2", runs)
	}
}

// stressResult tags a leader's result with the key and epoch it ran for.
type stressResult struct {
	key   string
	epoch uint64
}

// TestResultTableStress drives random recall, acquire, settle, abandon,
// revalidate and flush calls across keys and epochs from several
// goroutines (run it under -race). A request reaches its key as the
// handler does, through the request memo, from one of two texts per key
// that differ by a renamed variable: recall, and on a miss remember and
// acquire. Beside the table it keeps a model of each key's in-flight
// leader and asserts, against it, that requests of one key and epoch
// overlapping a flight wait on it instead of leading a second one; that
// no waiter receives another epoch's result and no hit another key's or
// a newer epoch's, nor inherits an abandonment; that a recalled text
// yields its own key; that resident entries and memoized texts never
// exceed capacity; and that nothing is left in flight at the end.
//
// The workers take one test mutex around each recall, acquire, abandon
// and settle, so the model moves in step with the table; revalidate,
// flush, waits and stats run beside them unserialized.
func TestResultTableStress(t *testing.T) {
	const capacity, keys, workers, ops = 4, 6, 8, 400
	tb := newResultTable(capacity)
	var epoch atomic.Uint64
	epoch.Store(1)

	var tagMu sync.Mutex
	tags := map[*gstored.Result]stressResult{}
	tag := func(res *gstored.Result) stressResult {
		tagMu.Lock()
		defer tagMu.Unlock()
		return tags[res]
	}
	var mu sync.Mutex // serializes the model with the table's leadership changes
	type leader struct {
		e     *entry
		epoch uint64
	}
	leading := map[string]leader{} // key → its in-flight leader the table maps

	errs := make(chan error, 1)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	stop := make(chan struct{})
	var bumper sync.WaitGroup
	bumper.Add(1)
	go func() {
		defer bumper.Done()
		r := rand.New(rand.NewSource(0))
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Duration(r.Intn(200)) * time.Microsecond):
			}
			from := epoch.Add(1) - 1
			if r.Intn(3) == 0 {
				tb.flush()
				continue
			}
			tb.revalidate(from, func(res *gstored.Result) bool {
				if tg := tag(res); tg.epoch > from {
					report(fmt.Errorf("revalidate(%d) judged a result of epoch %d", from, tg.epoch))
				}
				return r.Intn(2) == 0
			})
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < ops; i++ {
				k := r.Intn(keys)
				key := fmt.Sprintf("k%d", k)
				text := fmt.Sprintf("SELECT ?%c WHERE { ?%[1]c <k%d> [] }", "xy"[r.Intn(2)], k)
				at := epoch.Load()
				if at > 1 && r.Intn(8) == 0 {
					at-- // admitted before the last advance
				}
				mu.Lock()
				m, e, c := tb.recall(at, text)
				switch {
				case m == nil:
					tb.remember(text, &memoRead{key: key})
					e, c = tb.acquire(at, key)
				case m.key != key:
					report(fmt.Errorf("the memo maps %q to key %s", text, m.key))
				}
				l := leading[key]
				switch {
				case c == claimWait && l.e != e:
					report(fmt.Errorf("a request at (%s, %d) waits on an entry that is not the key's leader", key, at))
				case c == claimLead && l.e != nil && l.epoch == at:
					report(fmt.Errorf("a second leader at (%s, %d) while the first is in flight", key, at))
				case c == claimLead:
					tb.mu.Lock()
					mapped := tb.m[key] == e
					tb.mu.Unlock()
					if mapped {
						leading[key] = leader{e, at}
					}
				}
				mu.Unlock()

				switch c {
				case claimHit:
					if tg := tag(e.res); tg.key != key || tg.epoch > at {
						report(fmt.Errorf("a hit at (%s, %d) served %+v", key, at, tg))
					}
				case claimWait:
					<-e.done
					if errors.Is(e.err, context.Canceled) {
						report(fmt.Errorf("a waiter at (%s, %d) inherited its leader's abandonment", key, at))
					}
					if tg := tag(e.res); e.err == nil && tg != (stressResult{key, at}) {
						report(fmt.Errorf("a waiter at (%s, %d) received %+v", key, at, tg))
					}
				case claimLead:
					if r.Intn(20) == 0 {
						time.Sleep(time.Duration(r.Intn(100)) * time.Microsecond)
					}
					res := result(i)
					tagMu.Lock()
					tags[res] = stressResult{key, at}
					tagMu.Unlock()
					mu.Lock()
					abandoned := false
					if r.Intn(6) == 0 {
						tb.abandon(e, func() { abandoned = true })
					}
					if leading[key].e == e {
						delete(leading, key) // settled below, or abandoned
					}
					switch {
					case abandoned:
						tb.settle(e, nil, context.Canceled, false)
					case r.Intn(6) == 0:
						tb.settle(e, nil, errors.New("engine failure"), false)
					default:
						tb.settle(e, res, nil, r.Intn(4) != 0)
					}
					mu.Unlock()
				}
				if n := tb.stats().Entries; n > capacity {
					report(fmt.Errorf("%d resident entries, capacity %d", n, capacity))
				}
				tb.mu.Lock()
				memoized := len(tb.memo)
				tb.mu.Unlock()
				if memoized > capacity {
					report(fmt.Errorf("%d memoized texts, capacity %d", memoized, capacity))
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	bumper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := tb.inFlight(); n != 0 {
		t.Errorf("%d entries left in flight", n)
	}
	if st := tb.stats(); st.Hits == 0 || st.Misses == 0 || st.MemoHits == 0 {
		t.Errorf("the stress never hit, never missed or never recalled a text: %+v", st)
	}
}
