package gstored

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

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

// startWorkers launches n worker processes (goroutine-hosted, real TCP
// on loopback) and returns their addresses plus a stopper.
func startWorkers(t *testing.T, n int) ([]string, func()) {
	t.Helper()
	var addrs []string
	var workers []*remote.Worker
	var dones []chan struct{}
	for i := 0; i < n; i++ {
		w := remote.NewWorker(0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
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
		addrs = append(addrs, ln.Addr().String())
		workers = append(workers, w)
		dones = append(dones, done)
	}
	var once bool
	stop := func() {
		if once {
			return
		}
		once = true
		for i, w := range workers {
			if err := w.Close(); err != nil {
				t.Errorf("worker close: %v", err)
			}
			<-dones[i]
		}
	}
	t.Cleanup(stop)
	return addrs, stop
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

	// An update commits through the two-phase broadcast on both.
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

// TestMissedPrepareResync drops the prepare RPC for one site (the
// SkipPrepare hook models a lost message): the commit must draw
// need-sync from the worker, the coordinator must re-ship the full
// fragment, and the update must land with answers identical to an
// in-process twin that saw no failures.
func TestMissedPrepareResync(t *testing.T) {
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

	dropped := false
	wired.workers.SkipPrepare = func(site int, epoch uint64) bool {
		if site == 0 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	update := `INSERT DATA { <http://ex.org/v3> <http://ex.org/p1> <http://ex.org/v4> . }`
	ctx := context.Background()
	if _, err := local.Update(ctx, update); err != nil {
		t.Fatal(err)
	}
	ws, err := wired.Update(ctx, update)
	if err != nil {
		t.Fatalf("update through lost prepare: %v", err)
	}
	if !dropped {
		t.Fatal("hook never fired; the test exercised nothing")
	}
	if ws.Epoch != 2 {
		t.Fatalf("update landed at epoch %d, want 2", ws.Epoch)
	}
	for _, q := range []string{pathQuery, starQuery} {
		want := queryRows(t, local, q)
		got := queryRows(t, wired, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("post-resync rows diverge on %q", q)
		}
	}
	for _, st := range wired.SiteHealth(ctx) {
		if !st.Up || st.Epoch != 2 {
			t.Errorf("site %d: up=%v epoch=%d after resync", st.Site, st.Up, st.Epoch)
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
