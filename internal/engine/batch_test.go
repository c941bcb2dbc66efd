package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"gstored/internal/cluster"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// lubm8 is LUBM(8) hash-partitioned over 12 sites, built once per test
// binary.
var lubm8 = sync.OnceValues(func() (*workload.Dataset, *Engine) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 8})
	d, err := buildWith(store.FromGraph(ds.Graph), partition.Hash{}, 12)
	if err != nil {
		panic(err)
	}
	return ds, New(d)
})

// lubmQuery parses one of ds's benchmark queries by name.
func lubmQuery(tb testing.TB, ds *workload.Dataset, name string) *query.Graph {
	tb.Helper()
	bq, err := ds.Query(name)
	if err != nil {
		tb.Fatal(err)
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// hookSite is a site whose every batch, once the engine has taken it,
// goes to after.
type hookSite struct {
	cluster.Site
	after func(rows [][]rdf.TermID)
}

func (s hookSite) PartialEvalBatches(ctx context.Context, req cluster.PartialRequest, emit func([][]rdf.TermID) bool) (cluster.PartialReply, error) {
	return s.Site.PartialEvalBatches(ctx, req, func(rows [][]rdf.TermID) bool {
		ok := emit(rows)
		s.after(rows)
		return ok
	})
}

// hooked returns an engine over e's graph whose sites are e's, each
// hooked to after.
func hooked(e *Engine, after func([][]rdf.TermID)) *Engine {
	sites := make([]cluster.Site, len(e.sites))
	for i, s := range e.sites {
		sites[i] = hookSite{s, after}
	}
	return NewWithSites(e.graph, sites)
}

// TestStarRowsArriveInBatches: on the star path each seed chunk's
// matcher hands its rows over in batches whose size doubles from one row
// to store.RowBatch, so a sink is called at most ⌈rows/RowBatch⌉ times
// plus nine times per chunk (the eight doubling flushes and the chunk's
// last one), not once per row.
func TestStarRowsArriveInBatches(t *testing.T) {
	ds, e := lubm8()
	q := lubmQuery(t, ds, "LQ2")
	if _, ok := q.StarCenter(); !ok {
		t.Fatal("LQ2 is not a star")
	}
	h := e.hold(context.Background())
	defer h.cancel(nil)
	var calls, rows atomic.Int64
	stats, err := e.run(h, q, Config{EvalWorkers: 2}, func(batch [][]rdf.TermID) bool {
		calls.Add(1)
		rows.Add(int64(len(batch)))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, f := range stats.Fragments {
		chunks += f.Tasks
	}
	n := int(rows.Load())
	if n != stats.NumLocalMatches || n == 0 {
		t.Fatalf("sink saw %d rows, the sites matched %d", n, stats.NumLocalMatches)
	}
	bound := (n+store.RowBatch-1)/store.RowBatch + 9*chunks
	t.Logf("%d rows in %d batches over %d chunks (bound %d)", n, calls.Load(), chunks, bound)
	if int(calls.Load()) > bound {
		t.Errorf("%d rows arrived in %d batches over %d chunks, want at most %d", n, calls.Load(), chunks, bound)
	}
}

// TestStreamedStarEqualsOrderedOracle: a streamed star query, at widths 1,
// 2 and 4, emits exactly what the width-1 ordered oracle answers — the
// same rows without OFFSET or LIMIT, as many rows, each one of the
// answer, with them — and reports an early stop exactly when LIMIT cut
// the run short. Batches end mid-way through a LIMIT, and DISTINCT and
// OFFSET apply across the batches of concurrent producers.
func TestStreamedStarEqualsOrderedOracle(t *testing.T) {
	ds, e := lubm8()
	base := lubmQuery(t, ds, "LQ2")
	whole, err := e.ExecuteContext(context.Background(), base, Config{EvalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	answer := projectedRows(whole)
	if len(answer) <= 2*store.RowBatch {
		t.Fatalf("LQ2 answers %d rows: too few to span batches", len(answer))
	}
	for _, m := range []struct {
		distinct      bool
		limit, offset int
	}{
		{false, -1, 0}, {true, -1, 0}, {false, -1, 300},
		{false, 0, 0}, {false, 1, 0}, {false, 100, 0}, {false, 257, 0},
		{true, 257, 0}, {false, 257, 300}, {true, 1, 5},
	} {
		q := withMods(base, m.distinct, m.limit, m.offset)
		name := fmt.Sprintf("distinct=%v limit=%d offset=%d", m.distinct, m.limit, m.offset)
		want := referenceModified(whole, m.distinct, m.limit, m.offset)
		if got, _ := orderedRows(t, e, q, Full, 1); !sameRows(got, want) {
			t.Errorf("%s: the ordered oracle answers %d rows, the reference %d", name, len(got), len(want))
		}
		for _, width := range []int{1, 2, 4} {
			var rows []Row
			res, err := e.ExecuteStream(context.Background(), q, Config{EvalWorkers: width}, func(r Row) bool {
				rows = append(rows, slices.Clone(r))
				return true
			})
			if err != nil {
				t.Fatalf("%s width %d: %v", name, width, err)
			}
			if len(rows) != len(want) || res.Stats.NumMatches != len(want) {
				t.Errorf("%s width %d: emitted %d rows (NumMatches %d), want %d", name, width, len(rows), res.Stats.NumMatches, len(want))
			}
			if early := m.limit >= 0 && len(want) == m.limit; res.Stats.EarlyStop != early {
				t.Errorf("%s width %d: EarlyStop = %v, want %v", name, width, res.Stats.EarlyStop, early)
			}
			if !subMultiset(rows, answer) {
				t.Errorf("%s width %d: emitted a row the answer lacks", name, width)
			}
			if m.distinct && hasDuplicates(rows) {
				t.Errorf("%s width %d: duplicate rows under DISTINCT", name, width)
			}
			if m.limit < 0 && m.offset == 0 && !sameMultiset(rows, want) {
				t.Errorf("%s width %d: the streamed rows are not the oracle's", name, width)
			}
		}
	}
}

// TestOverwrittenBatchesChangeNoResult: a producer may reuse a batch and
// its rows as soon as the sink returns, so a site that scribbles over
// every batch it emitted changes no ordered answer — the collector, the
// LIMIT window, a disconnected query's component rows and the crossing
// rows beside them all keep copies.
func TestOverwrittenBatchesChangeNoResult(t *testing.T) {
	ds, e := lubm8()
	scribbling := hooked(e, func(rows [][]rdf.TermID) {
		for _, r := range rows {
			for i := range r {
				r[i] = ^rdf.TermID(0)
			}
		}
	})
	disconnected, err := workload.BenchQuery{SPARQL: `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT * WHERE { ?x ub:headOf ?d . ?y ub:worksFor <` + workload.LubmDeptURI(0, 0) + `> . ?y ub:researchInterest ?i }`}.Parse(ds.Graph.Dict)
	if err != nil {
		t.Fatal(err)
	}
	lq2 := lubmQuery(t, ds, "LQ2")
	for _, tc := range []struct {
		name string
		q    *query.Graph
	}{
		{"LQ2", lq2},
		{"LQ2 LIMIT 100", withMods(lq2, false, 100, 0)},
		{"LQ2 DISTINCT LIMIT 257", withMods(lq2, true, 257, 0)},
		{"LQ1", lubmQuery(t, ds, "LQ1")},
		{"LQ7 LIMIT 100", withMods(lubmQuery(t, ds, "LQ7"), false, 100, 0)},
		{"disconnected", disconnected},
	} {
		for _, width := range []int{1, 2} {
			want, _ := orderedRows(t, e, tc.q, Full, width)
			got, _ := orderedRows(t, scribbling, tc.q, Full, width)
			if len(want) == 0 {
				t.Fatalf("%s answers no row", tc.name)
			}
			if !sameRows(got, want) {
				t.Errorf("%s width %d: overwriting emitted batches changed the answer (%d rows, want %d)", tc.name, width, len(got), len(want))
			}
		}
	}
}

// BenchmarkStarStream is the served star path without the server:
// ExecuteStream of LQ2 on LUBM(32), hash-partitioned over 12 sites, at
// width 2, the consumer counting rows. It reports the batches the sites
// handed the engine per execution (batches/op) beside ns/op and
// allocs/op; CI logs all three with no threshold.
func BenchmarkStarStream(b *testing.B) {
	ds, e := lubm32()
	q := lubmQuery(b, ds, "LQ2")
	var batches atomic.Int64
	counted := hooked(e, func([][]rdf.TermID) { batches.Add(1) })
	rows := 0
	b.ReportAllocs()
	for b.Loop() {
		if _, err := counted.ExecuteStream(context.Background(), q, Config{EvalWorkers: 2}, func(Row) bool { rows++; return true }); err != nil {
			b.Fatal(err)
		}
	}
	if rows == 0 {
		b.Fatal("LQ2 streamed no row")
	}
	b.ReportMetric(float64(batches.Load())/float64(b.N), "batches/op")
}
