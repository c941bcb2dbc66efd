package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// heldBytes is what holding rows of width slots costs the budget.
func heldBytes(rows, width int) int64 { return int64(rows * (rowOverhead + 4*width)) }

// featuresHeld is what the features of q's run in mode reserve: a row
// per partial match and four slots per crossing-edge mapping they hold.
func featuresHeld(t *testing.T, e *Engine, q *query.Graph, mode Mode) int64 {
	t.Helper()
	h := e.hold(context.Background())
	defer h.cancel(nil)
	stats := Stats{Mode: mode, Fragments: make([]FragmentStats, len(e.sites))}
	ship, err := e.component(h, q, e.graph.Global.Plan(q), Config{Mode: mode}, pool.New(1), &stats, func(Row) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	mappings := 0
	for _, pm := range ship.pms {
		mappings += len(partial.AppendCrossing(nil, q, pm))
	}
	return heldBytes(len(ship.pms), 0) + int64(4*4*mappings)
}

// TestBudgetCapsWhatAnExecutionHolds: an execution fails with ErrBudget
// exactly when what it holds exceeds the engine's budget, at every width.
// A connected crossing query holds the partial matches stage 1 gathers,
// what the LEC stage reserves for them and, ordered, the rows its sink
// collects; a disconnected one holds its
// component rows and intermediate products and, ordered, the final rows.
// A streamed run holds no final rows, so it runs under a budget the
// ordered run exceeds.
func TestBudgetCapsWhatAnExecutionHolds(t *testing.T) {
	ex, e := paperEngine(t)
	res, err := e.ExecuteContext(context.Background(), ex.Query, Config{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	s, q := res.Stats, ex.Query
	crossingStream := heldBytes(s.NumPartialMatches, len(q.Vertices)) + featuresHeld(t, e, q, Full)
	crossingOrdered := crossingStream + heldBytes(s.NumLocalMatches+s.NumCrossingMatches, len(q.Vars))
	if s.NumPartialMatches == 0 || s.NumCrossingMatches == 0 {
		t.Fatal("the paper's query gathers no partial matches")
	}
	g, _, dup := dupExample(t)
	// Three components of 5, 2 and 2 two-variable rows: intermediate
	// products of 5 and 10 six-variable rows, and 20 final rows.
	disconnected := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
		Triple(query.Var("m"), query.IRI("http://ex/color"), query.Var("n")).
		Triple(query.Var("a"), query.IRI("http://ex/in"), query.Var("b")).
		MustBuild()
	disconnectedStream := heldBytes(5+2+2, 2) + heldBytes(5+10, 6)
	disconnectedOrdered := disconnectedStream + heldBytes(20, 6)

	for _, c := range []struct {
		name            string
		e               *Engine
		q               *query.Graph
		ordered, stream int64
	}{
		{"crossing", e, q, crossingOrdered, crossingStream},
		{"disconnected", dup, disconnected, disconnectedOrdered, disconnectedStream},
	} {
		for _, width := range []int{1, 4} {
			cfg := Config{Mode: Full, EvalWorkers: width}
			run := func(budget int64, ordered bool) error {
				c.e.budget = budget
				if ordered {
					_, err := c.e.ExecuteContext(context.Background(), c.q, cfg)
					return err
				}
				_, err := c.e.ExecuteStream(context.Background(), c.q, cfg, func(Row) bool { return true })
				return err
			}
			for _, ordered := range []bool{true, false} {
				held := c.stream
				if ordered {
					held = c.ordered
				}
				if err := run(held, ordered); err != nil {
					t.Errorf("%s width %d ordered %v: budget %d: %v", c.name, width, ordered, held, err)
				}
				if err := run(held-1, ordered); !errors.Is(err, ErrBudget) || errors.Is(err, context.Canceled) {
					t.Errorf("%s width %d ordered %v: budget %d: err = %v, want ErrBudget", c.name, width, ordered, held-1, err)
				}
			}
		}
	}
}

// TestBasicChargesItsFeatures: Basic's singleton features are charged
// like LA's LEC features — a row per partial match and four slots per
// crossing-edge mapping — so the same partial matches charge the same
// in both modes: a streamed run fits a budget of its partial matches
// plus that charge, at every width, and fails with ErrBudget one byte
// below it.
func TestBasicChargesItsFeatures(t *testing.T) {
	ex, e := paperEngine(t)
	q := ex.Query
	var held [2]int64
	for i, mode := range []Mode{Basic, LA} {
		res, err := e.ExecuteContext(context.Background(), q, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		held[i] = heldBytes(res.Stats.NumPartialMatches, len(q.Vertices)) + featuresHeld(t, e, q, mode)
		for _, width := range []int{1, 4} {
			run := func(budget int64) error {
				e.budget = budget
				_, err := e.ExecuteStream(context.Background(), q, Config{Mode: mode, EvalWorkers: width}, func(Row) bool { return true })
				return err
			}
			if err := run(held[i]); err != nil {
				t.Errorf("%v width %d: budget %d: %v", mode, width, held[i], err)
			}
			if err := run(held[i] - 1); !errors.Is(err, ErrBudget) {
				t.Errorf("%v width %d: budget %d: err = %v, want ErrBudget", mode, width, held[i]-1, err)
			}
		}
		e.budget = heldBudget
	}
	if held[0] != held[1] {
		t.Errorf("Basic holds %d bytes, LA %d: want the same", held[0], held[1])
	}
}

// TestOrderedLimitHoldsItsWindow: an ordered LIMIT query holds only its
// window of offset + limit final rows, not every row it sorts. On
// LUBM(1), the four-way cross product of 168,885 rows, asked for 10 rows
// (after 5, and under DISTINCT on two of its variables), runs under the
// budget its component rows and intermediate products need plus exactly
// its window, and fails with ErrBudget one byte below; every answer
// equals the unbounded ordered run's rows under the same modifiers.
func TestOrderedLimitHoldsItsWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("large result; skipped in -short")
	}
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 1})
	d, err := buildWith(store.FromGraph(ds.Graph), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := New(d)
	const ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	b := query.NewBuilder(ds.Graph.Dict)
	for i, p := range []string{"takesCourse", "name", "subOrganizationOf", "headOf"} {
		b.Triple(query.Var(fmt.Sprint("v", 2*i)), query.IRI(ub+p), query.Var(fmt.Sprint("v", 2*i+1)))
	}
	base := b.MustBuild()

	// What a streamed run holds: each component's rows, then the
	// products before the last.
	var stream int64
	product := 1
	comps := query.SplitComponents(base)
	for ci, comp := range comps {
		res, err := e.ExecuteContext(context.Background(), comp.Query, Config{Mode: Full})
		if err != nil {
			t.Fatal(err)
		}
		stream += heldBytes(res.Len(), len(comp.Query.Vars))
		if product *= res.Len(); ci < len(comps)-1 {
			stream += heldBytes(product, len(base.Vars))
		}
	}
	if product < 100_000 {
		t.Fatalf("the cross product has %d rows, want at least 100,000", product)
	}

	for _, c := range []struct {
		name     string
		distinct bool
		proj     []int
		offset   int
	}{
		{"limit", false, nil, 0},
		{"offset", false, nil, 5},
		{"distinct", true, []int{1, 7}, 0},
		{"distinct offset", true, []int{1, 7}, 5},
	} {
		unbounded := *base
		unbounded.Distinct, unbounded.Projection, unbounded.Offset = c.distinct, c.proj, c.offset
		e.budget = heldBudget
		all, err := e.ExecuteContext(context.Background(), &unbounded, Config{Mode: Full})
		if err != nil {
			t.Fatalf("%s: unbounded: %v", c.name, err)
		}
		limited := unbounded
		limited.HasLimit, limited.Limit = true, 10
		window := stream + heldBytes(c.offset+limited.Limit, len(base.Vars))
		for _, width := range []int{1, 4} {
			cfg := Config{Mode: Full, EvalWorkers: width}
			e.budget = window
			got, err := e.ExecuteContext(context.Background(), &limited, cfg)
			if err != nil {
				t.Fatalf("%s width %d: budget %d: %v", c.name, width, window, err)
			}
			if want := all.Rows[:limited.Limit]; !slices.EqualFunc(got.Rows, want, slices.Equal) {
				t.Errorf("%s width %d: rows %v, want %v", c.name, width, got.Rows, want)
			}
			e.budget = window - 1
			if _, err := e.ExecuteContext(context.Background(), &limited, cfg); !errors.Is(err, ErrBudget) {
				t.Errorf("%s width %d: budget %d: err = %v, want ErrBudget", c.name, width, window-1, err)
			}
		}
	}
}
