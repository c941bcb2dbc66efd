package gstored

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gstored/internal/partition"
	"gstored/internal/rdf"
)

// skewedMix is the acceptance-scenario workload: 80% of the traffic is
// LQ1/LQ7-style complex cross-fragment traffic, with some star queries
// mixed in. Under this skew the crossing edges those joins traverse
// dominate the workload-weighted cost, while the data-only Section VII
// model keeps weighing every edge equally.
var skewedMix = map[string]int{"LQ1": 40, "LQ7": 40, "LQ6": 10, "LQ2": 5, "LQ4": 5}

// feedMix executes each query of the mix once and observes it into a
// fresh log at its traffic multiplicity, returning the log.
func feedMix(t *testing.T, db *DB, ds *Dataset, mix map[string]int) *QueryLog {
	t.Helper()
	qlog := NewQueryLog(0)
	for name, n := range mix {
		bq, err := ds.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.ParseReadOnly(bq.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.QueryGraphContext(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			qlog.Observe(name, bq.SPARQL, q, res.Stats)
		}
	}
	return qlog
}

// mixCrossing totals partial and crossing matches over the mix,
// weighted by traffic share — the quantity the advisor is supposed to
// shrink.
func mixCrossing(t *testing.T, db *DB, ds *Dataset, mix map[string]int) (partials, crossings int) {
	t.Helper()
	for name, n := range mix {
		bq, err := ds.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Query(bq.SPARQL)
		if err != nil {
			t.Fatal(err)
		}
		partials += n * res.Stats.NumPartialMatches
		crossings += n * res.Stats.NumCrossingMatches
	}
	return
}

// TestWorkloadAdvisorBeatsDataOnly pins the issue's acceptance
// criterion: on a skewed LUBM query mix the workload-weighted advisor
// recommends a different (strategy, k) than the data-only Section VII
// model, and applying the recommendation via DB.Repartition reduces the
// partial-match crossing traffic the mix actually generates.
func TestWorkloadAdvisorBeatsDataOnly(t *testing.T) {
	ds := GenerateLUBM(8)
	db, err := Open(ds.Graph, Config{Sites: 12, Strategy: "hash"})
	if err != nil {
		t.Fatal(err)
	}

	qlog := feedMix(t, db, ds, skewedMix)
	rec, err := db.Advise(qlog.Snapshot().Workload(0), 4, 8, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Differs() {
		t.Fatalf("workload advisor agrees with data-only model (%s,%d); the skewed mix should change the verdict",
			rec.Strategy, rec.K)
	}

	// Serve the mix under the data-only pick, then under the
	// workload-weighted pick, and compare what the queries report.
	dataAssign, err := db.PlanPartition(rec.DataStrategy, rec.DataK)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Repartition(dataAssign); err != nil {
		t.Fatal(err)
	}
	dataPartials, dataCrossings := mixCrossing(t, db, ds, skewedMix)

	if err := db.Repartition(rec.Assignment); err != nil {
		t.Fatal(err)
	}
	wlPartials, wlCrossings := mixCrossing(t, db, ds, skewedMix)

	if wlPartials >= dataPartials {
		t.Errorf("workload pick (%s,%d) partial matches = %d, not below data pick (%s,%d) = %d",
			rec.Strategy, rec.K, wlPartials, rec.DataStrategy, rec.DataK, dataPartials)
	}
	if wlCrossings >= dataCrossings {
		t.Errorf("workload pick crossing matches = %d, not below data pick = %d", wlCrossings, dataCrossings)
	}
	if db.Strategy() != rec.Strategy || db.NumSites() != rec.K {
		t.Errorf("live cluster = (%s,%d), want applied recommendation (%s,%d)",
			db.Strategy(), db.NumSites(), rec.Strategy, rec.K)
	}
}

// TestRepartitionSwapsAtomically drives queries from many goroutines
// while the cluster is repeatedly repartitioned. Every query must see
// one consistent cluster generation — identical result rows regardless
// of which side of a swap it lands on — and the epoch must advance once
// per swap. go test -race is part of the assertion.
func TestRepartitionSwapsAtomically(t *testing.T) {
	g := NewGraph()
	for i := 0; i < 30; i++ {
		g.AddIRIs(fmt.Sprintf("http://ex/p%d", i), "http://ex/knows", fmt.Sprintf("http://ex/p%d", (i+1)%30))
		g.AddIRIs(fmt.Sprintf("http://ex/p%d", i), "http://ex/likes", fmt.Sprintf("http://ex/p%d", (i+7)%30))
	}
	db, err := Open(g, Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/likes> ?z }`
	baseline, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := baseline.Len()
	if wantRows == 0 {
		t.Fatal("baseline query is empty; the consistency check would be vacuous")
	}

	startEpoch := db.Epoch()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != wantRows {
					errs <- fmt.Errorf("query saw %d rows, want %d (inconsistent cluster mid-swap?)", res.Len(), wantRows)
					return
				}
			}
		}()
	}

	const swaps = 20
	strategies := []string{"hash", "semantic-hash", "metis"}
	for i := 0; i < swaps; i++ {
		a, err := db.PlanPartition(strategies[i%len(strategies)], 2+i%3)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Repartition(a); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := db.Epoch(); got != startEpoch+swaps {
		t.Errorf("epoch = %d, want %d (+1 per swap)", got, startEpoch+swaps)
	}
}

// TestRepartitionRejectsPartialAssignment pins the swap-boundary
// invariant behind Assignment.Lookup: an assignment that does not cover
// every vertex must be rejected before the swap, leaving the previous
// generation serving and the epoch untouched.
func TestRepartitionRejectsPartialAssignment(t *testing.T) {
	g := NewGraph()
	g.AddIRIs("http://ex/a", "http://ex/p", "http://ex/b")
	g.AddIRIs("http://ex/b", "http://ex/p", "http://ex/c")
	db, err := Open(g, Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	epoch, sites := db.Epoch(), db.NumSites()

	if err := db.Repartition(nil); err == nil {
		t.Error("nil assignment accepted")
	}
	partial := &Assignment{K: 2, Frag: map[rdf.TermID]int{}} // covers nothing
	if err := db.Repartition(partial); err == nil {
		t.Error("uncovered assignment accepted; FragmentOf's fragment-0 fallback would mis-route")
	}
	if db.Epoch() != epoch || db.NumSites() != sites {
		t.Errorf("failed repartition mutated the cluster: epoch %d→%d, sites %d→%d",
			epoch, db.Epoch(), sites, db.NumSites())
	}
	if _, err := db.Query(`SELECT ?x WHERE { ?x <http://ex/p> ?y }`); err != nil {
		t.Errorf("serving broken after rejected repartition: %v", err)
	}
}

// TestReplayQueryLog round-trips the offline path: records written the
// way `gstored serve -query-log` writes them replay into a workload the
// advisor accepts, with unparseable entries skipped, not fatal.
func TestReplayQueryLog(t *testing.T) {
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	lq1, err := ds.Query("LQ1")
	if err != nil {
		t.Fatal(err)
	}
	lq2, err := ds.Query("LQ2")
	if err != nil {
		t.Fatal(err)
	}
	log := strings.Join([]string{
		`# replayed by TestReplayQueryLog`,
		fmt.Sprintf(`{"query": %q}`, lq1.SPARQL),
		fmt.Sprintf(`{"query": %q, "count": 9}`, lq1.SPARQL),
		fmt.Sprintf(`{"query": %q, "count": 3}`, lq2.SPARQL),
		`{"query": "THIS IS NOT SPARQL"}`,
	}, "\n")

	qlog, replayed, skipped, err := ReplayQueryLog(db, strings.NewReader(log), 0)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 13 || skipped != 1 {
		t.Fatalf("replayed=%d skipped=%d, want 13/1", replayed, skipped)
	}
	snap := qlog.Snapshot()
	if snap.Distinct != 2 {
		t.Fatalf("distinct = %d, want 2 (textual repeats of LQ1 share a canonical key)", snap.Distinct)
	}
	if snap.Entries[0].Count != 10 {
		t.Errorf("hottest entry count = %d, want 10", snap.Entries[0].Count)
	}
	if _, err := db.Advise(snap.Workload(0), 2, 4); err != nil {
		t.Errorf("advising over a replayed log: %v", err)
	}
}

// TestAdviseStrategies checks the restricted-strategy path and its
// error handling.
func TestAdviseStrategies(t *testing.T) {
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.AdviseStrategies(Workload{}, []string{"hash", "semantic-hash"}, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Candidates) != 4 {
		t.Errorf("candidates = %d, want 2 strategies × 2 ks", len(rec.Candidates))
	}
	for _, c := range rec.Candidates {
		if c.Strategy == "metis" {
			t.Error("excluded strategy evaluated")
		}
	}
	if _, err := db.AdviseStrategies(Workload{}, []string{"no-such-strategy"}, 2); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// Compile-time check that the re-exported aliases stay wired.
var (
	_                           = partition.Workload(Workload{})
	_ *partition.Recommendation = (*Recommendation)(nil)
)
