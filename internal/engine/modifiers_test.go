package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// dupExample is a small graph whose projections produce known duplicates:
//
//	knows: a1→b, a2→b, a3→c, a4→c, a5→c   (SELECT ?y: {b×2, c×3})
//	in:    b→rome, c→rome                  (path SELECT ?z: {rome×5})
//	color: p→red, q→red                    (disconnected cross products)
func dupExample(t *testing.T) (*rdf.Graph, *store.Store, *Engine) {
	t.Helper()
	g := rdf.NewGraph()
	add := func(s, p, o string) {
		g.Add(rdf.NewIRI("http://ex/"+s), rdf.NewIRI("http://ex/"+p), rdf.NewIRI("http://ex/"+o))
	}
	add("a1", "knows", "b")
	add("a2", "knows", "b")
	add("a3", "knows", "c")
	add("a4", "knows", "c")
	add("a5", "knows", "c")
	add("b", "in", "rome")
	add("c", "in", "rome")
	add("p", "color", "red")
	add("q", "color", "red")
	st := store.FromGraph(g)
	a, err := (partition.Hash{}).Partition(st, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fragment.Build(st, a)
	if err != nil {
		t.Fatal(err)
	}
	return g, st, New(d)
}

// withMods copies q and applies the given solution modifiers.
func withMods(q *query.Graph, distinct bool, limit, offset int) *query.Graph {
	m := *q
	m.Distinct = distinct
	if limit >= 0 {
		m.Limit, m.HasLimit = limit, true
	}
	m.Offset = offset
	return &m
}

// referenceModified applies the modifier semantics to a plain ordered
// result: dedup projected keys in canonical full-row order, then slice.
// It returns the expected projected keys, in order.
func referenceModified(base *Result, distinct bool, limit, offset int) []Row {
	var rows []Row
	base.EachProjected(func(r Row) bool {
		if !distinct || !slices.ContainsFunc(rows, func(k Row) bool { return slices.Equal(k, r) }) {
			rows = append(rows, slices.Clone(r))
		}
		return true
	})
	if offset >= len(rows) {
		rows = rows[:0]
	} else {
		rows = rows[offset:]
	}
	if limit >= 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// TestSelectDistinctRegression is the headline bugfix pin: before this
// change the parser-set distinct flag was dropped on the floor and
// SELECT DISTINCT returned the duplicate-bearing multiset.
func TestSelectDistinctRegression(t *testing.T) {
	g, st, e := dupExample(t)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
		Select("y").
		MustBuild()
	if got := len(centralizedRows(st, q)); got != 5 {
		t.Fatalf("plain multiset has %d rows, want 5", got)
	}
	plain, err := e.Execute(q, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 5 {
		t.Fatalf("plain SELECT ?y: %d rows, want 5 (duplicates preserved)", plain.Len())
	}
	res, err := e.Execute(withMods(q, true, -1, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("SELECT DISTINCT ?y: %d rows, want 2 (set of {b, c})", res.Len())
	}
	if rows := projectedRows(res); hasDuplicates(rows) {
		t.Errorf("duplicate projected row under DISTINCT: %v", rows)
	}
}

// TestModifierConformance is the DISTINCT × LIMIT × OFFSET ×
// ordered/unordered table over query shapes with known duplicates: a
// star (fast path), a two-edge path (partial evaluation + assembly), and
// a disconnected query (component cross product). Ordered answers must
// equal the reference modifier semantics exactly; unordered answers must
// have the right cardinality, draw only from the true answer, respect
// DISTINCT, and report EarlyStop exactly when LIMIT cut the run short.
func TestModifierConformance(t *testing.T) {
	g, _, e := dupExample(t)
	b := func() *query.Builder { return query.NewBuilder(g.Dict) }
	shapes := []struct {
		name string
		q    *query.Graph
	}{
		{"star", b().
			Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
			Select("y").MustBuild()},
		{"path", b().
			Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("http://ex/in"), query.Var("z")).
			Select("z").MustBuild()},
		{"disconnected", b().
			Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
			Triple(query.Var("m"), query.IRI("http://ex/color"), query.Var("n")).
			Select("y", "n").MustBuild()},
	}
	for _, shape := range shapes {
		base, err := e.Execute(shape.q, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if base.Len() < 5 {
			t.Fatalf("%s: baseline has %d rows; too small to exercise modifiers", shape.name, base.Len())
		}
		answer := projectedRows(base)

		for _, distinct := range []bool{false, true} {
			for _, limit := range []int{-1, 0, 2, 100} {
				for _, offset := range []int{0, 1, 3} {
					name := fmt.Sprintf("%s/distinct=%v/limit=%d/offset=%d", shape.name, distinct, limit, offset)
					mq := withMods(shape.q, distinct, limit, offset)
					want := referenceModified(base, distinct, limit, offset)

					// Ordered: exact, deterministic.
					res, err := e.Execute(mq, Config{})
					if err != nil {
						t.Fatalf("%s ordered: %v", name, err)
					}
					if got := projectedRows(res); !sameRows(got, want) {
						t.Errorf("%s ordered:\n got %v\nwant %v", name, got, want)
					}
					if res.Stats.NumMatches != len(want) {
						t.Errorf("%s ordered: NumMatches = %d, want %d", name, res.Stats.NumMatches, len(want))
					}

					// Unordered: cardinality + membership + set semantics.
					var streamed []Row
					sres, err := e.ExecuteStream(context.Background(), mq, Config{}, func(r Row) bool {
						streamed = append(streamed, slices.Clone(r))
						return true
					})
					if err != nil {
						t.Fatalf("%s unordered: %v", name, err)
					}
					if len(streamed) != len(want) {
						t.Errorf("%s unordered: emitted %d rows, want %d", name, len(streamed), len(want))
					}
					for _, r := range streamed {
						if !slices.ContainsFunc(answer, func(a Row) bool { return slices.Equal(a, r) }) {
							t.Errorf("%s unordered: emitted row %v not in the true answer", name, r)
						}
					}
					if distinct && hasDuplicates(streamed) {
						t.Errorf("%s unordered: duplicate rows under DISTINCT: %v", name, streamed)
					}
					// Without OFFSET/LIMIT truncation the unordered answer
					// must be the same multiset, just in another order.
					if limit < 0 && offset == 0 && !sameMultiset(streamed, want) {
						t.Errorf("%s unordered full answer:\n got %v\nwant %v", name, sortedRows(streamed), sortedRows(want))
					}
					wantEarly := limit >= 0 && len(want) == limit
					if sres.Stats.EarlyStop != wantEarly {
						t.Errorf("%s unordered: EarlyStop = %v, want %v", name, sres.Stats.EarlyStop, wantEarly)
					}
					if sres.Stats.NumMatches != len(streamed) {
						t.Errorf("%s unordered: NumMatches = %d, want %d", name, sres.Stats.NumMatches, len(streamed))
					}
					if sres.Rows != nil {
						t.Errorf("%s unordered: Rows retained (%d), want nil", name, len(sres.Rows))
					}
				}
			}
		}
	}
}

// TestExecuteStreamEarlyTermination pins the cooperative-stop contract:
// a satisfied LIMIT (or a consumer declining rows) cancels the run, and
// a cancelled parent context still surfaces as its own error.
func TestExecuteStreamEarlyTermination(t *testing.T) {
	g, _, e := dupExample(t)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
		MustBuild()

	// Consumer stops after one row: success, EarlyStop, one emission.
	calls := 0
	res, err := e.ExecuteStream(context.Background(), q, Config{}, func(Row) bool {
		calls++
		return false
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !res.Stats.EarlyStop {
		t.Errorf("consumer stop: calls=%d EarlyStop=%v, want 1/true", calls, res.Stats.EarlyStop)
	}

	// Pre-cancelled parent: the context error wins, nothing is emitted.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ExecuteStream(ctx, q, Config{}, func(Row) bool {
		t.Error("emit called under a cancelled context")
		return true
	}); err != context.Canceled {
		t.Errorf("cancelled parent: err = %v, want context.Canceled", err)
	}

	// LIMIT 0 is satisfied before the first row, on the star path and
	// through partial evaluation alike.
	limit0 := withMods(q, false, 0, 0)
	noEmit := func(Row) bool {
		t.Error("emit called under LIMIT 0")
		return true
	}
	res, err = e.ExecuteStream(context.Background(), limit0, Config{}, noEmit)
	if err != nil {
		t.Fatalf("LIMIT 0: %v", err)
	}
	if !res.Stats.EarlyStop || res.Stats.NumMatches != 0 {
		t.Errorf("LIMIT 0: stats %+v", res.Stats)
	}
	// q is a star; a path takes partial evaluation and assembly.
	path0 := withMods(query.NewBuilder(g.Dict).
		Triple(query.Var("a"), query.IRI("http://ex/knows"), query.Var("b")).
		Triple(query.Var("b"), query.IRI("http://ex/in"), query.Var("r")).
		Triple(query.Var("c"), query.IRI("http://ex/in"), query.Var("r")).
		MustBuild(), false, 0, 0)
	if _, star := path0.StarCenter(); star {
		t.Fatal("path query is a star")
	}
	sctx, stop := context.WithCancel(context.Background())
	defer stop()
	sink := newStreamSink(path0, func(_, p Row) bool { return noEmit(p) }, stop)
	if _, err := distributedRun(sctx, e, path0, Config{}, sink.push); !errors.Is(err, context.Canceled) {
		t.Errorf("LIMIT 0 through partial evaluation: err = %v, want the sink's cancellation", err)
	}
	if !sink.finished() || sink.emitted != 0 {
		t.Errorf("LIMIT 0 through partial evaluation: finished %v, %d rows emitted", sink.finished(), sink.emitted)
	}
}

// TestInvalidModifiersRejectedOnDisconnectedGraph pins parent-graph
// validation: a hand-built disconnected query carrying an invalid
// modifier must fail Validate up front on both execution paths, not
// slip past the per-component checks (SplitComponents strips modifiers)
// and panic in the final modifier slice.
func TestInvalidModifiersRejectedOnDisconnectedGraph(t *testing.T) {
	g, _, e := dupExample(t)
	base := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
		Triple(query.Var("m"), query.IRI("http://ex/color"), query.Var("n")).
		MustBuild()
	for name, mutate := range map[string]func(*query.Graph){
		"negative limit":  func(q *query.Graph) { q.Limit, q.HasLimit = -1, true },
		"negative offset": func(q *query.Graph) { q.Offset = -5 },
	} {
		bad := *base
		mutate(&bad)
		if _, err := e.Execute(&bad, Config{}); err == nil {
			t.Errorf("%s: Execute accepted an invalid modifier", name)
		}
		if _, err := e.ExecuteStream(context.Background(), &bad, Config{}, func(Row) bool { return true }); err == nil {
			t.Errorf("%s: ExecuteStream accepted an invalid modifier", name)
		}
	}
}

// TestOrderedModifiersDeterministic pins that the default ordered path
// stays deterministic under modifiers: two runs of DISTINCT+OFFSET+LIMIT
// return identical row sequences.
func TestOrderedModifiersDeterministic(t *testing.T) {
	g, _, e := dupExample(t)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
		MustBuild()
	mq := withMods(q, true, 2, 1)
	a, err := e.Execute(mq, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Execute(mq, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !sameRows(a.Rows, b.Rows) {
		t.Errorf("ordered modifier runs differ:\n%v\n%v", a.Rows, b.Rows)
	}
}

// TestSortRowsNumericOrder pins the canonical row order: numeric TermID
// order slot by slot, not the order of the IDs' decimal spellings (which
// put 10 before 9).
func TestSortRowsNumericOrder(t *testing.T) {
	rows := []Row{{10, 1}, {9, 7}, {2, 300}, {2, 31}, {100, 0}}
	sortRows(rows)
	want := []Row{{2, 31}, {2, 300}, {9, 7}, {10, 1}, {100, 0}}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Errorf("sortRows = %v, want %v", rows, want)
	}
}

// TestDistinctAllocs pins DISTINCT's cost to its set, not its rows: the
// sink dedups projected rows in a key.Set, which builds no key per row.
// The ordered replay reserves the set for its rows up front, so its
// allocations do not grow with the row count; a streamed run's set
// grows geometrically, so 10,000 rows cost it a few dozen allocations.
// Half the rows repeat a projection.
func TestDistinctAllocs(t *testing.T) {
	q := &query.Graph{Vars: []string{"x", "y", "z"}, Projection: []int{0, 1}, Distinct: true}
	rows := func(n int) []Row {
		rs := make([]Row, n)
		for i := range rs {
			rs[i] = Row{rdf.TermID(i/2 + 1), rdf.TermID(i/2 + 2), rdf.TermID(i + 1)}
		}
		return rs
	}
	ordered := func(n int) float64 {
		rs, work := rows(n), make([]Row, n)
		return testing.AllocsPerRun(10, func() {
			copy(work, rs)
			if got := len(replay(q, work)); got != n/2 {
				t.Fatalf("DISTINCT kept %d of %d rows, want %d", got, n, n/2)
			}
		})
	}
	streamed := func(n int) float64 {
		rs := rows(n)
		return testing.AllocsPerRun(10, func() {
			emitted := 0
			sink := newStreamSink(q, func(_, _ Row) bool { emitted++; return true }, func() {})
			for _, r := range rs {
				sink.push(r)
			}
			if emitted != n/2 {
				t.Fatalf("DISTINCT streamed %d of %d rows, want %d", emitted, n, n/2)
			}
		})
	}
	const small, large = 100, 10000
	if s, l := ordered(small), ordered(large); l > s {
		t.Errorf("ordered DISTINCT: %.0f allocations for %d rows, %.0f for %d", l, large, s, small)
	}
	if s, l := streamed(small), streamed(large); l > s+64 {
		t.Errorf("streamed DISTINCT: %.0f allocations for %d rows, %.0f for %d", l, large, s, small)
	}
}
