package gstored

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// These tests exist to run under -race (CI does): they drive the
// bounded evaluation pool through generation swaps, early-LIMIT
// cancellation, and first-error propagation, and check that no pool
// worker outlives its query.

const ubPrefix = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// checkGoroutines asserts the goroutine count settles back to the
// pre-test baseline (plus slack for runtime helpers): pool workers are
// per-query and must all exit with it.
func checkGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d now vs %d baseline\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoolQueriesDuringSwaps runs parallel queries (ordered and
// streaming) while Update and Repartition swap the generation under
// them. Every query must answer from one coherent generation: no
// errors, no torn reads, and the pool must not leak workers across
// swaps.
func TestPoolQueriesDuringSwaps(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4, EvalWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	pathQ, err := db.Parse(fmt.Sprintf(
		`SELECT ?x ?z WHERE { ?x <%sadvisor> ?y . ?y <%sworksFor> ?z }`, ubPrefix, ubPrefix))
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.QueryGraphContext(context.Background(), pathQ)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) == 0 {
		t.Fatal("fixture query has no rows")
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(ordered bool) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if ordered {
					res, err := db.QueryGraphContext(context.Background(), pathQ)
					if err != nil {
						report(err)
						return
					}
					if len(res.Rows) != len(want.Rows) {
						report(fmt.Errorf("ordered rows = %d, want %d", len(res.Rows), len(want.Rows)))
						return
					}
				} else {
					n := 0
					if _, err := db.QueryGraphStreamContext(context.Background(), pathQ,
						func(Row) bool { n++; return true }); err != nil {
						report(err)
						return
					}
					if n != len(want.Rows) {
						report(fmt.Errorf("streamed rows = %d, want %d", n, len(want.Rows)))
						return
					}
				}
			}
		}(i%2 == 0)
	}

	// Writer: alternate updates (epoch bumps through Apply + stats
	// rebuild) and repartitions (full cluster rebuild + swap).
	for i := 0; i < 6; i++ {
		ins := fmt.Sprintf(`INSERT DATA { <http://ex/swap%d> <http://ex/tag> <http://ex/t> }`, i)
		if _, err := db.Update(context.Background(), ins); err != nil {
			t.Fatal(err)
		}
		k := 3 + i%2
		plan, err := db.PlanPartition("hash", k)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Repartition(plan); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	checkGoroutines(t, baseline)
}

// TestPoolEarlyLimitCancel streams a small LIMIT off a large answer
// with a wide pool, repeatedly: the sink's cancellation must stop the
// in-flight chunk tasks and every worker must exit.
func TestPoolEarlyLimitCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 4, EvalWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Parse(fmt.Sprintf(
		`SELECT ?x ?y WHERE { ?x <%sname> ?y } LIMIT 3`, ubPrefix))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		n := 0
		res, err := db.QueryGraphStreamContext(context.Background(), q, func(Row) bool {
			n++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("iteration %d: streamed %d rows, want 3", i, n)
		}
		if !res.Stats.EarlyStop {
			t.Fatalf("iteration %d: LIMIT did not cancel early", i)
		}
	}
	checkGoroutines(t, baseline)
}

// TestPoolFirstErrorWins runs a query over the engine's held-data budget
// on a width-8 pool: the surfaced error must be ErrBudget, the cause the
// budget canceled the execution with, not the cancellation every stage
// then observes, and the failed query must not strand workers.
func TestPoolFirstErrorWins(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ds := GenerateLUBM(32)
	db, err := Open(ds.Graph, Config{Sites: 4, EvalWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Three components: a path with no shared center, which runs
	// distributed partial evaluation on the pool, and the probe's two
	// name patterns, whose cross product with it is far over the budget.
	text := fmt.Sprintf(
		`SELECT * WHERE { ?x <%sadvisor> ?y . ?y <%sworksFor> ?z . ?z <%ssubOrganizationOf> ?w . ?a <%sname> ?b . ?c <%sname> ?d }`,
		ubPrefix, ubPrefix, ubPrefix, ubPrefix, ubPrefix)
	for i := 0; i < 3; i++ {
		_, err := db.Query(text)
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("error is %v, want ErrBudget", err)
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("the budget's error was masked by cancellation: %v", err)
		}
	}
	checkGoroutines(t, baseline)
}
