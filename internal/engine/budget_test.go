package engine

import (
	"context"
	"errors"
	"testing"

	"gstored/internal/query"
)

// heldBytes is what holding rows of width slots costs the budget.
func heldBytes(rows, width int) int64 { return int64(rows * (rowOverhead + 4*width)) }

// TestBudgetCapsWhatAnExecutionHolds: an execution fails with ErrBudget
// exactly when what it holds exceeds the engine's budget, at every width.
// A connected crossing query holds the partial matches stage 1 gathers
// and, ordered, the rows its sink collects; a disconnected one holds its
// component rows and intermediate products and, ordered, the final rows.
// A streamed run holds no final rows, so it runs under a budget the
// ordered run exceeds.
func TestBudgetCapsWhatAnExecutionHolds(t *testing.T) {
	ex, e := paperEngine(t)
	res, err := e.Execute(ex.Query, Config{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	s, q := res.Stats, ex.Query
	crossingStream := heldBytes(s.NumPartialMatches, len(q.Vertices))
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
					_, err := c.e.Execute(c.q, cfg)
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
