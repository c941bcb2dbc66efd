package gstored

import (
	"fmt"
	"sync"
	"testing"

	"gstored/internal/rdf"
)

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
		t.Error("uncovered assignment accepted")
	}
	if db.Epoch() != epoch || db.NumSites() != sites {
		t.Errorf("failed repartition mutated the cluster: epoch %d→%d, sites %d→%d",
			epoch, db.Epoch(), sites, db.NumSites())
	}
	if _, err := db.Query(`SELECT ?x WHERE { ?x <http://ex/p> ?y }`); err != nil {
		t.Errorf("serving broken after rejected repartition: %v", err)
	}
}
