package gstored

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestZeroConfigRunsFullSystem is the regression test for the DB.mode
// contract: the zero value of Config.Mode is engine.ModeUnset, which
// resolves to the full system (ModeFull), not ModeBasic.
func TestZeroConfigRunsFullSystem(t *testing.T) {
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	if db.Mode() != ModeFull {
		t.Errorf("zero-config DB.Mode() = %v, want ModeFull", db.Mode())
	}
	lq1, err := ds.Query("LQ1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(lq1.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Mode != ModeFull {
		t.Errorf("zero-config execution ran %v, want ModeFull", res.Stats.Mode)
	}
	// And it must agree with an explicit ModeFull run.
	full, err := queryMode(db, lq1.SPARQL, ModeFull)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(full.Rows) {
		t.Errorf("zero-config rows = %d, explicit ModeFull rows = %d", len(res.Rows), len(full.Rows))
	}
}

// TestConcurrentQueries fires many simultaneous DB.Query calls across all
// modes against one DB and checks every result against a sequential
// baseline. Run under -race (the CI does) this is the regression test for
// the serving layer's thread-safety contract.
func TestConcurrentQueries(t *testing.T) {
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	modes := []Mode{ModeBasic, ModeLA, ModeLO, ModeFull}

	// Sequential baseline per (query, mode).
	type key struct {
		name string
		mode Mode
	}
	baseline := make(map[key]string)
	for _, bq := range ds.Queries {
		for _, m := range modes {
			res, err := queryMode(db, bq.SPARQL, m)
			if err != nil {
				t.Fatalf("%s/%v: %v", bq.Name, m, err)
			}
			baseline[key{bq.Name, m}] = renderRows(db, res)
		}
	}

	const iterations = 3
	var wg sync.WaitGroup
	errs := make(chan error, len(ds.Queries)*len(modes)*iterations)
	for _, bq := range ds.Queries {
		for _, m := range modes {
			for i := 0; i < iterations; i++ {
				wg.Add(1)
				go func(bq BenchQuery, m Mode) {
					defer wg.Done()
					res, err := queryMode(db, bq.SPARQL, m)
					if err != nil {
						errs <- fmt.Errorf("%s/%v: %w", bq.Name, m, err)
						return
					}
					if got := renderRows(db, res); got != baseline[key{bq.Name, m}] {
						errs <- fmt.Errorf("%s/%v: concurrent result diverged from baseline", bq.Name, m)
					}
				}(bq, m)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestQueryContextCancellation checks the cooperative-cancellation path:
// an already-expired context fails fast with its error and no result.
func TestQueryContextCancellation(t *testing.T) {
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lq1, err := ds.Query("LQ1")
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Parse(lq1.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryGraphContext(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled query = %v, want context.Canceled", err)
	}
}

// renderRows flattens a result into one deterministic string (rows are
// already sorted by the engine).
func renderRows(db *DB, res *Result) string {
	var b strings.Builder
	for _, row := range db.Rows(res) {
		b.WriteString(strings.Join(row, "\x1f"))
		b.WriteByte('\n')
	}
	return b.String()
}
