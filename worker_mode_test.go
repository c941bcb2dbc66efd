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

// TestWorkerModeReadOnlyModifiers: a site receives only a query's
// pattern, so solution modifiers and the spelling of a constant the data
// lacks stay at the coordinator. Read-only parses carrying a projection,
// DISTINCT, OFFSET and LIMIT, one of them naming an absent IRI (a
// placeholder), answer through two workers as in process: the ordered
// rows exactly; the streamed rows as many as the ordered answer, with no
// duplicate and all from the unwindowed answer (a stream may keep any
// window).
func TestWorkerModeReadOnlyModifiers(t *testing.T) {
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
	parse := func(db *DB, text string) *QueryGraph {
		t.Helper()
		q, err := db.ParseReadOnly(text)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	ordered := func(db *DB, text string) []string {
		t.Helper()
		res, err := db.QueryGraphContext(ctx, parse(db, text))
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range db.Rows(res) {
			out = append(out, fmt.Sprint(r))
		}
		return out
	}
	streamed := func(db *DB, text string) []string {
		t.Helper()
		var out []string
		if _, err := db.QueryGraphStreamContext(ctx, parse(db, text), func(r Row) bool {
			out = append(out, fmt.Sprint([]string{db.Graph.Dict.MustDecode(r[0]).String()})) // as ordered renders it
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	const window = ` OFFSET 1 LIMIT 5`
	for _, tc := range []struct {
		pattern     string
		placeholder bool
	}{
		{`?x <http://ex.org/p0> ?y . ?y <http://ex.org/p1> ?z`, false},
		{`?x <http://ex.org/p0> ?y . ?y <http://ex.org/absent> ?z`, true},
	} {
		text := `SELECT DISTINCT ?x WHERE { ` + tc.pattern + ` }`
		if q := parse(wired, text+window); (q.Placeholders != nil) != tc.placeholder {
			t.Fatalf("%s: placeholders %v, want some: %v", text, q.Placeholders, tc.placeholder)
		}
		want := ordered(local, text+window)
		if got := ordered(wired, text+window); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: worker-mode rows %v, in-process %v", text+window, got, want)
		}
		if !tc.placeholder && len(want) == 0 {
			t.Fatalf("%s: no rows; fixture too sparse", text+window)
		}
		answer := map[string]bool{}
		for _, r := range ordered(local, text) {
			answer[r] = true
		}
		for _, db := range []*DB{local, wired} {
			rows, seen := streamed(db, text+window), map[string]bool{}
			for _, r := range rows {
				if seen[r] || !answer[r] {
					t.Errorf("%s: streamed row %s repeats or is not in the answer", text+window, r)
				}
				seen[r] = true
			}
			if len(rows) != len(want) {
				t.Errorf("%s: streamed %d rows, the ordered answer has %d", text+window, len(rows), len(want))
			}
		}
	}
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
// fails the first one fail matches. Sites install concurrently, so the
// spy takes a lock; read the calls with take once the update returned.
type swapSpy struct {
	mu    sync.Mutex
	fail  func(site int, epoch uint64) bool
	calls []swapCall
}

type swapCall struct {
	site int
	kind string // what the install asked of the site: "full", "delta" or "carry"
	err  error
}

// take returns the calls recorded so far and forgets them.
func (s *swapSpy) take() []swapCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	return calls
}

func installKind(swap cluster.GenerationSwap) string {
	switch {
	case swap.Fragment == nil:
		return "carry"
	case swap.Delta != nil:
		return "delta"
	}
	return "full"
}

// spySite is a cluster.Site whose installs go through a swapSpy; the
// handles it returns do too.
type spySite struct {
	cluster.Site
	spy *swapSpy
}

var errInjected = errors.New("injected install fault")

func (s spySite) SwapGeneration(ctx context.Context, swap cluster.GenerationSwap) (cluster.Site, error) {
	s.spy.mu.Lock()
	inject := s.spy.fail != nil && s.spy.fail(s.ID(), swap.Epoch)
	if inject {
		s.spy.fail = nil
	}
	s.spy.mu.Unlock()
	var next cluster.Site
	err := errInjected
	if !inject {
		next, err = s.Site.SwapGeneration(ctx, swap)
	}
	s.spy.mu.Lock()
	s.spy.calls = append(s.spy.calls, swapCall{site: s.ID(), kind: installKind(swap), err: err})
	s.spy.mu.Unlock()
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
	dist := db.load().dist
	var out []string
	for i := 0; i < 60; i++ {
		v := fmt.Sprintf("http://ex.org/v%d", i)
		if id, ok := db.Graph.Dict.Lookup(rdf.NewIRI(v)); ok && keep(dist.Owner(id)) {
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
// last site, while other sites installed the new epoch, must leave no
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
	for _, c := range spy.take() {
		if c.kind != "carry" && c.err == nil && c.site != j {
			i = c.site
			break
		}
	}
	if i < 0 {
		t.Fatalf("no site but %d installed the failed update's fragment; the test exercises nothing", j)
	}

	vs := verticesIn(wired, func(f int) bool { return f != i })
	if len(vs) < 2 {
		t.Fatalf("fewer than two vertices outside fragment %d", i)
	}
	second := fmt.Sprintf(`INSERT DATA { <%s> <http://ex.org/p9> <%s> . }`, vs[0], vs[1])
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
	for _, c := range spy.take() {
		if c.site == i && c.kind != "carry" {
			t.Fatalf("the second update installed fragment %d as %s; it must carry it forward", i, c.kind)
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
// an in-process twin's, and health is back up. Restarted again, the
// worker refuses the share of an update that touches its fragment the
// same way and gets the full fragment.
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
	spy := spyOn(wired)

	// update applies text to both twins at epoch and returns what each
	// wired site was asked to install, in order.
	update := func(text string, epoch uint64) map[int][]swapCall {
		t.Helper()
		if _, err := local.Update(ctx, text); err != nil {
			t.Fatal(err)
		}
		ws, err := wired.Update(ctx, text)
		if err != nil {
			t.Fatalf("update across the restarted worker: %v", err)
		}
		if ws.Epoch != epoch {
			t.Fatalf("update landed at epoch %d, want %d", ws.Epoch, epoch)
		}
		calls := map[int][]swapCall{}
		for _, c := range spy.take() {
			calls[c.site] = append(calls[c.site], c)
		}
		sameRows(t, fmt.Sprintf("after the resync at epoch %d", epoch), local, wired, pathQuery, starQuery,
			`SELECT ?s ?o WHERE { ?s <http://ex.org/p9> ?o }`)
		for _, st := range wired.SiteHealth(ctx) {
			if !st.Up || st.Epoch != epoch {
				t.Errorf("site %d: up=%v epoch=%d after the resync (%s)", st.Site, st.Up, st.Epoch, st.Error)
			}
		}
		return calls
	}
	// refusedThenFull requires a site's installs to be a refused first
	// try of the given kind, then the full fragment.
	refusedThenFull := func(site int, c []swapCall, kind string) {
		t.Helper()
		if len(c) != 2 || c[0].kind != kind || !errors.Is(c[0].err, cluster.ErrNeedSync) || c[1].kind != "full" || c[1].err != nil {
			t.Errorf("site %d installs %+v; want a refused %s, then the full fragment", site, c, kind)
		}
	}

	// Worker A hosts the even sites.
	stopA()
	_, stopA = startWorker(t, addrA)
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
	calls := update(fmt.Sprintf(`INSERT DATA { <%s> <http://ex.org/p9> <%s> . }`, vs[0], vs[1]), 2)
	for _, site := range []int{0, 2} {
		refusedThenFull(site, calls[site], "carry")
	}

	// Restart A again; an update that touches fragment 0, on A, ships its
	// share there, which the empty worker refuses.
	stopA()
	startWorker(t, addrA)
	vs = verticesIn(wired, func(f int) bool { return f == 0 })
	if len(vs) < 2 {
		t.Fatal("fewer than two vertices in fragment 0")
	}
	calls = update(fmt.Sprintf(`INSERT DATA { <%s> <http://ex.org/p9> <%s> . }`, vs[0], vs[1]), 3)
	refusedThenFull(0, calls[0], "delta")
	refusedThenFull(2, calls[2], "carry")
}

// TestWorkerModeUpdatesShipDeltas runs 20 seeded random INSERT DATA /
// DELETE DATA requests against two workers and an in-process twin. After
// the initial ship no touched site installs its fragment in full: each
// receives its share of the delta and patches its resident generation.
// The rows equal the twin's after every step.
func TestWorkerModeUpdatesShipDeltas(t *testing.T) {
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
	spy := spyOn(wired)
	rng := rand.New(rand.NewSource(31))
	// v60..v69 are not in the graph yet: inserts add vertices too.
	node := func() string { return fmt.Sprintf("<http://ex.org/v%d>", rng.Intn(70)) }
	deltas := 0
	for step := 0; step < 20; step++ {
		var ins, del []string
		for i := 1 + rng.Intn(4); i > 0; i-- {
			ins = append(ins, fmt.Sprintf("%s <http://ex.org/p%d> %s .", node(), rng.Intn(3), node()))
		}
		live := local.Distributed().Global.Triples()
		for i := rng.Intn(4); i > 0; i-- {
			tr := live[rng.Intn(len(live))]
			d := local.Graph.Dict
			del = append(del, fmt.Sprintf("%s %s %s .", d.MustDecode(tr.S), d.MustDecode(tr.P), d.MustDecode(tr.O)))
		}
		text := fmt.Sprintf("INSERT DATA { %s }", strings.Join(ins, " "))
		if len(del) > 0 {
			text = fmt.Sprintf("DELETE DATA { %s } ; %s", strings.Join(del, " "), text)
		}
		ls, err := local.Update(ctx, text)
		if err != nil {
			t.Fatalf("step %d, in process: %v", step, err)
		}
		ws, err := wired.Update(ctx, text)
		if err != nil {
			t.Fatalf("step %d, wired: %v", step, err)
		}
		if ws != ls {
			t.Fatalf("step %d: wired update %+v, in process %+v", step, ws, ls)
		}
		for _, c := range spy.take() {
			switch {
			case c.err != nil:
				t.Fatalf("step %d: site %d refused a %s install: %v", step, c.site, c.kind, c.err)
			case c.kind == "full":
				t.Fatalf("step %d: site %d installed its fragment in full", step, c.site)
			case c.kind == "delta":
				deltas++
			}
		}
		sameRows(t, fmt.Sprintf("step %d", step), local, wired, pathQuery, starQuery,
			`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	}
	if deltas < 20 {
		t.Errorf("only %d delta installs in 20 steps", deltas)
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
