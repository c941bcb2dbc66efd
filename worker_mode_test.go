package gstored

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gstored/internal/cluster"
	"gstored/internal/engine"
	"gstored/internal/rdf"
	"gstored/internal/remote"
)

// workerGraph builds a deterministic dense graph; each call returns an
// independent copy (own dictionary), so twin databases never share
// mutable state.
func workerGraph() *Graph {
	rng := rand.New(rand.NewSource(7))
	g := NewGraph()
	node := func(i int) string { return fmt.Sprintf("http://ex.org/v%d", i) }
	for p := 0; p < 3; p++ {
		pred := fmt.Sprintf("http://ex.org/p%d", p)
		for k := 0; k < 150; k++ {
			g.AddIRIs(node(rng.Intn(60)), pred, node(rng.Intn(60)))
		}
	}
	// A known triple the update test deletes.
	g.AddIRIs("http://ex.org/seedS", "http://ex.org/p0", "http://ex.org/seedO")
	return g
}

// startWorker serves a worker (goroutine-hosted, real TCP) on addr —
// "127.0.0.1:0" picks a port — and returns the bound address plus an
// idempotent stopper, which also runs at cleanup.
func startWorker(t *testing.T, addr string) (string, func()) {
	t.Helper()
	w := remote.NewWorker(0)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Serve(ln); err != nil {
			t.Errorf("worker serve: %v", err)
		}
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			if err := w.Close(); err != nil {
				t.Errorf("worker close: %v", err)
			}
			<-done
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// startWorkers launches n workers on loopback and returns their
// addresses plus a stopper for all of them.
func startWorkers(t *testing.T, n int) ([]string, func()) {
	t.Helper()
	addrs := make([]string, n)
	stops := make([]func(), n)
	for i := range addrs {
		addrs[i], stops[i] = startWorker(t, "127.0.0.1:0")
	}
	return addrs, func() {
		for _, stop := range stops {
			stop()
		}
	}
}

func queryRows(t *testing.T, db *DB, sparqlText string) [][]string {
	t.Helper()
	res, err := db.Query(sparqlText)
	if err != nil {
		t.Fatal(err)
	}
	return db.Rows(res)
}

const pathQuery = `SELECT ?x ?y ?z WHERE {
	?x <http://ex.org/p0> ?y .
	?y <http://ex.org/p1> ?z .
}`

const starQuery = `SELECT ?x ?a ?b WHERE {
	?x <http://ex.org/p0> ?a .
	?x <http://ex.org/p1> ?b .
}`

// TestWorkerModeEndToEnd runs the whole public API through worker mode
// against an in-process twin: queries, stats, health, updates, and a
// repartition must agree (ordered rows are deterministic, so equality is
// exact).
func TestWorkerModeEndToEnd(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	local, err := Open(workerGraph(), Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := Open(workerGraph(), Config{Sites: 4, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := wired.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	compare := func(label string) {
		t.Helper()
		for _, q := range []string{pathQuery, starQuery} {
			want := queryRows(t, local, q)
			got := queryRows(t, wired, q)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: worker-mode rows diverge (%d vs %d rows)", label, len(got), len(want))
			}
		}
	}
	compare("initial")

	// Wired executions report measured transport bytes.
	res, err := wired.Query(pathQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalShipment <= 0 {
		t.Errorf("wired shipment = %d, want > 0", res.Stats.TotalShipment)
	}
	var wire int64
	for _, fs := range res.Stats.Fragments {
		wire += fs.WireBytes
	}
	if wire <= 0 {
		t.Errorf("per-site wire bytes = %d, want > 0", wire)
	}

	// Health: every site up, served by a worker address, at epoch 1, with
	// the round-robin fragment count (4 fragments over 2 workers = 2 each).
	for _, st := range wired.SiteHealth(context.Background()) {
		if !st.Up {
			t.Fatalf("site %d down: %s", st.Site, st.Error)
		}
		if st.Addr != addrs[st.Site%2] {
			t.Errorf("site %d at %s, want %s", st.Site, st.Addr, addrs[st.Site%2])
		}
		if st.Epoch != 1 || st.Fragments != 2 {
			t.Errorf("site %d epoch %d / %d fragments, want 1 / 2", st.Site, st.Epoch, st.Fragments)
		}
	}

	// An update installs its epoch on both.
	update := `INSERT DATA { <http://ex.org/v1> <http://ex.org/p0> <http://ex.org/v2> . } ;
DELETE DATA { <http://ex.org/seedS> <http://ex.org/p0> <http://ex.org/seedO> . }`
	ctx := context.Background()
	ls, err := local.Update(ctx, update)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wired.Update(ctx, update)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Epoch != 2 || ws.Inserted != ls.Inserted || ws.Deleted != ls.Deleted {
		t.Fatalf("wired update = %+v, local = %+v", ws, ls)
	}
	compare("post-update")
	for _, st := range wired.SiteHealth(ctx) {
		if st.Epoch != 2 {
			t.Errorf("site %d at epoch %d after update, want 2", st.Site, st.Epoch)
		}
	}

	// A repartition ships every fragment; parity must survive the new
	// layout and site count.
	la, err := local.PlanPartition("semantic-hash", 3)
	if err != nil {
		t.Fatal(err)
	}
	wa, err := wired.PlanPartition("semantic-hash", 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Repartition(la); err != nil {
		t.Fatal(err)
	}
	if err := wired.Repartition(wa); err != nil {
		t.Fatal(err)
	}
	if wired.NumSites() != 3 || wired.Epoch() != 3 {
		t.Fatalf("after repartition: %d sites at epoch %d", wired.NumSites(), wired.Epoch())
	}
	compare("post-repartition")
}

// TestWorkerKilledMidQuery kills both workers from inside the streaming
// emit callback while rows are still flowing: the query must return an
// error promptly — not hang on a dead socket, not pretend it finished.
func TestWorkerKilledMidQuery(t *testing.T) {
	// A hub star: 300×300 = 90k result rows stream from the hub's owning
	// site in ~350 row frames, so the worker is still producing when the
	// kill lands (the star fast path streams site rows straight through
	// the RPC, no coordinator-side materialization).
	g := NewGraph()
	for i := 0; i < 300; i++ {
		g.AddIRIs("http://ex.org/hub", "http://ex.org/p0", fmt.Sprintf("http://ex.org/a%d", i))
		g.AddIRIs("http://ex.org/hub", "http://ex.org/p1", fmt.Sprintf("http://ex.org/b%d", i))
	}
	addrs, stop := startWorkers(t, 2)
	db, err := Open(g, Config{Sites: 4, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = db.Close() }() // transport already torn down; nothing left to fail

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rows := 0
	start := time.Now()
	starQ, err := db.Parse(starQuery)
	if err != nil {
		t.Fatal(err)
	}
	_, err = db.QueryGraphStreamContext(ctx, starQ, func(r Row) bool {
		rows++
		if rows == 1 {
			stop()
		}
		return true
	})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against killed workers reported success")
	}
	if ctx.Err() != nil {
		t.Fatalf("query hung until the guard deadline (%v): %v", elapsed, err)
	}
	if !strings.Contains(err.Error(), "remote") && !strings.Contains(err.Error(), "connection") {
		t.Logf("note: kill surfaced as %v", err)
	}
}

// swapSpy records every install the live sites of a database receive and
// fails the first one fail matches. Installs run one at a time under the
// database's swap lock, so the spy needs no lock of its own.
type swapSpy struct {
	fail  func(site int, epoch uint64) bool
	calls []swapCall
}

type swapCall struct {
	site    int
	shipped bool
	err     error
}

// spySite is a cluster.Site whose installs go through a swapSpy; the
// handles it returns do too.
type spySite struct {
	cluster.Site
	spy *swapSpy
}

var errInjected = errors.New("injected install fault")

func (s spySite) SwapGeneration(ctx context.Context, swap cluster.GenerationSwap) (cluster.Site, error) {
	var next cluster.Site
	err := errInjected
	if s.spy.fail != nil && s.spy.fail(s.ID(), swap.Epoch) {
		s.spy.fail = nil
	} else {
		next, err = s.Site.SwapGeneration(ctx, swap)
	}
	s.spy.calls = append(s.spy.calls, swapCall{site: s.ID(), shipped: swap.Fragment != nil, err: err})
	if err != nil {
		return nil, err
	}
	return spySite{next, s.spy}, nil
}

// spyOn routes db's next installs through a new swapSpy by wrapping the
// live generation's site handles, which every install starts from.
func spyOn(db *DB) *swapSpy {
	spy := &swapSpy{}
	cur := db.load()
	sites := make([]cluster.Site, len(cur.sites))
	for i, s := range cur.sites {
		sites[i] = spySite{s, spy}
	}
	db.state.Store(&dbState{dist: cur.dist, eng: engine.NewWithSites(cur.dist, sites), sites: sites, strategy: cur.strategy, epoch: cur.epoch})
	return spy
}

// verticesIn lists workerGraph's vertices that db places in a fragment
// keep accepts.
func verticesIn(db *DB, keep func(frag int) bool) []string {
	assign := db.load().dist.Assignment
	var out []string
	for i := 0; i < 60; i++ {
		v := fmt.Sprintf("http://ex.org/v%d", i)
		if id, ok := db.Graph.Dict.Lookup(rdf.NewIRI(v)); ok && keep(assign.FragmentOf(id)) {
			out = append(out, v)
		}
	}
	return out
}

// sameRows requires got to answer every query with want's rows, in any
// order: a failed update still encodes its terms, so twins' dictionaries
// and with them their row orders may differ.
func sameRows(t *testing.T, label string, want, got *DB, queries ...string) {
	t.Helper()
	sorted := func(db *DB, q string) string {
		rows := queryRows(t, db, q)
		lines := make([]string, len(rows))
		for i, r := range rows {
			lines[i] = fmt.Sprint(r)
		}
		sort.Strings(lines)
		return strings.Join(lines, "\n")
	}
	for _, q := range queries {
		if w, g := sorted(want, q), sorted(got, q); w != g {
			t.Fatalf("%s: rows diverge on %q:\ngot  %s\nwant %s", label, q, g, w)
		}
	}
}

// TestAbortedInstallIsNotServed: an update whose install fails at the
// last site, after earlier sites installed the new epoch, must leave no
// trace. The next update reuses that epoch, carries the untouched
// fragment forward from the live epoch, and the wired rows equal an
// in-process twin that applied only the second update — the predicate
// only the failed update wrote included.
func TestAbortedInstallIsNotServed(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	local, err := Open(workerGraph(), Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := Open(workerGraph(), Config{Sites: 4, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := wired.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ctx := context.Background()

	const j = 3
	spy := spyOn(wired)
	spy.fail = func(site int, epoch uint64) bool { return site == j && epoch == 2 }
	if _, err := wired.Update(ctx, `INSERT DATA { <http://ex.org/v3> <http://ex.org/zz> <http://ex.org/v7> . }`); !errors.Is(err, errInjected) {
		t.Fatalf("update through the injected fault: %v", err)
	}
	if e := wired.Epoch(); e != 1 {
		t.Fatalf("the failed update moved the epoch to %d", e)
	}
	i := -1
	for _, c := range spy.calls {
		if c.shipped && c.err == nil && c.site < j {
			i = c.site
			break
		}
	}
	if i < 0 {
		t.Fatalf("no site before %d installed the failed update's fragment; the test exercises nothing", j)
	}

	vs := verticesIn(wired, func(f int) bool { return f != i })
	if len(vs) < 2 {
		t.Fatalf("fewer than two vertices outside fragment %d", i)
	}
	second := fmt.Sprintf(`INSERT DATA { <%s> <http://ex.org/p9> <%s> . }`, vs[0], vs[1])
	spy.calls = nil
	if _, err := local.Update(ctx, second); err != nil {
		t.Fatal(err)
	}
	ws, err := wired.Update(ctx, second)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Epoch != 2 {
		t.Fatalf("second update landed at epoch %d, want 2", ws.Epoch)
	}
	for _, c := range spy.calls {
		if c.site == i && c.shipped {
			t.Fatalf("the second update shipped fragment %d; it must carry it forward", i)
		}
	}
	sameRows(t, "after the aborted install", local, wired, pathQuery, starQuery,
		`SELECT ?s ?o WHERE { ?s <http://ex.org/zz> ?o }`,
		`SELECT ?s ?o WHERE { ?s <http://ex.org/p9> ?o }`)
}

// TestRestartedWorkerResyncs restarts one worker on its address: health
// reports its sites down (they no longer hold the live epoch, so every
// query to them would fail), the next update's carry-forward installs
// there are refused and the full fragments re-shipped, the rows equal
// an in-process twin's, and health is back up.
func TestRestartedWorkerResyncs(t *testing.T) {
	addrA, stopA := startWorker(t, "127.0.0.1:0")
	addrB, _ := startWorker(t, "127.0.0.1:0")
	local, err := Open(workerGraph(), Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := Open(workerGraph(), Config{Sites: 4, Workers: []string{addrA, addrB}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := wired.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	ctx := context.Background()

	// Worker A hosts the even sites.
	stopA()
	startWorker(t, addrA)
	for _, st := range wired.SiteHealth(ctx) {
		if restarted := st.Site%2 == 0; st.Up == restarted {
			t.Errorf("site %d: up=%v after worker A restarted (%s)", st.Site, st.Up, st.Error)
		}
	}

	// An update that touches only worker B's fragments.
	vs := verticesIn(wired, func(f int) bool { return f%2 == 1 })
	if len(vs) < 2 {
		t.Fatal("fewer than two vertices on worker B")
	}
	update := fmt.Sprintf(`INSERT DATA { <%s> <http://ex.org/p9> <%s> . }`, vs[0], vs[1])
	spy := spyOn(wired)
	if _, err := local.Update(ctx, update); err != nil {
		t.Fatal(err)
	}
	ws, err := wired.Update(ctx, update)
	if err != nil {
		t.Fatalf("update across the restarted worker: %v", err)
	}
	if ws.Epoch != 2 {
		t.Fatalf("update landed at epoch %d, want 2", ws.Epoch)
	}
	calls := map[int][]swapCall{}
	for _, c := range spy.calls {
		calls[c.site] = append(calls[c.site], c)
	}
	for _, site := range []int{0, 2} {
		c := calls[site]
		if len(c) != 2 || c[0].shipped || !errors.Is(c[0].err, cluster.ErrNeedSync) || !c[1].shipped || c[1].err != nil {
			t.Errorf("site %d installs %+v; want a refused carry-forward, then the full fragment", site, c)
		}
	}
	sameRows(t, "after the resync", local, wired, pathQuery, starQuery,
		`SELECT ?s ?o WHERE { ?s <http://ex.org/p9> ?o }`)
	for _, st := range wired.SiteHealth(ctx) {
		if !st.Up || st.Epoch != 2 {
			t.Errorf("site %d: up=%v epoch=%d after the resync (%s)", st.Site, st.Up, st.Epoch, st.Error)
		}
	}
}

// TestWorkerModeGoroutineHygiene runs a full worker-mode lifecycle and
// checks the process returns to its baseline goroutine count: no leaked
// RPC readers, no stuck connection handlers.
func TestWorkerModeGoroutineHygiene(t *testing.T) {
	before := runtime.NumGoroutine()

	addrs, stop := startWorkers(t, 2)
	db, err := Open(workerGraph(), Config{Sites: 4, Workers: addrs})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query(pathQuery); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after teardown\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}
