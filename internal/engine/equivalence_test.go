package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// equivEnv is the shared fixture of the cross-mode equivalence harness:
// a seeded random graph distributed over 4 sites, dense enough that
// every query shape below has matches and every site holds crossing
// edges.
type equivEnv struct {
	dict *rdf.Dictionary
	dist *fragment.Distributed
	eng  *Engine
}

func newEquivEnv(t *testing.T) *equivEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	g := rdf.NewGraph()
	const nv = 60
	node := func(i int) string { return fmt.Sprintf("http://ex.org/v%d", i) }
	pred := func(i int) string { return fmt.Sprintf("http://ex.org/p%d", i) }
	for p := 0; p < 3; p++ {
		for k := 0; k < 150; k++ {
			g.AddIRIs(node(rng.Intn(nv)), pred(p), node(rng.Intn(nv)))
		}
	}
	st := store.FromGraph(g)
	d, err := fragment.BuildWith(st, partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	return &equivEnv{dict: g.Dict, dist: d, eng: New(d)}
}

// shape builds one of the four structural query classes over the
// fixture predicates. mod applies the modifier combination under test.
func (env *equivEnv) shape(t *testing.T, name string, mod func(*query.Builder) *query.Builder) *query.Graph {
	t.Helper()
	b := query.NewBuilder(env.dict)
	switch name {
	case "star":
		b.Triple(query.Var("x"), query.IRI("http://ex.org/p0"), query.Var("a")).
			Triple(query.Var("x"), query.IRI("http://ex.org/p1"), query.Var("b"))
	case "path":
		b.Triple(query.Var("x"), query.IRI("http://ex.org/p0"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("http://ex.org/p1"), query.Var("z"))
	case "cross":
		// Two single-edge components: a pure cross product.
		b.Triple(query.Var("x"), query.IRI("http://ex.org/p0"), query.Var("y")).
			Triple(query.Var("a"), query.IRI("http://ex.org/p2"), query.Var("b"))
	case "disconnected":
		// A path component and a separate edge: component split where one
		// side itself needs distributed evaluation.
		b.Triple(query.Var("x"), query.IRI("http://ex.org/p0"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("http://ex.org/p1"), query.Var("z")).
			Triple(query.Var("a"), query.IRI("http://ex.org/p2"), query.Var("b"))
	default:
		t.Fatalf("unknown shape %q", name)
	}
	if mod != nil {
		b = mod(b)
	}
	return b.MustBuild()
}

// orderedKeys runs the ordered path and returns the projected row keys
// in their served order.
func orderedKeys(t *testing.T, e *Engine, q *query.Graph, workers int) []string {
	t.Helper()
	res, err := e.Execute(q, Config{Mode: Full, EvalWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	res.EachProjected(func(r Row) bool {
		keys = append(keys, r.Key())
		return true
	})
	return keys
}

// streamedKeys runs the unordered streaming path and returns emitted
// projected row keys in emission order.
func streamedKeys(t *testing.T, e *Engine, q *query.Graph, workers int) []string {
	t.Helper()
	var keys []string
	_, err := e.ExecuteStream(context.Background(), q, Config{Mode: Full, EvalWorkers: workers}, func(r Row) bool {
		keys = append(keys, r.Key())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

func multiset(keys []string) map[string]int {
	m := make(map[string]int, len(keys))
	for _, k := range keys {
		m[k]++
	}
	return m
}

func sameMultiset(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	ma := multiset(a)
	for k, n := range multiset(b) {
		if ma[k] != n {
			return false
		}
	}
	return true
}

// TestCrossModeEquivalence is the cross-mode equivalence harness: every
// query shape × modifier combination runs through sequential vs
// parallel evaluation and ordered vs unordered delivery, and all modes
// must agree with the sequential ordered oracle.
//
//   - Ordered delivery is deterministic: identical row sequences
//     regardless of worker count.
//   - Ordered delivery equals the streamed rows collected, sorted with
//     sortRows and passed through applyModifiers — the definition of the
//     ordered path, checked from outside it.
//   - Unordered delivery without LIMIT/OFFSET: identical row multisets.
//   - Unordered delivery under LIMIT/OFFSET without DISTINCT may pick a
//     different (equally correct) row subset, so the harness checks
//     count plus membership in the unmodified answer multiset.
func TestCrossModeEquivalence(t *testing.T) {
	env := newEquivEnv(t)
	shapes := []string{"star", "path", "cross", "disconnected"}
	mods := []struct {
		name       string
		mod        func(*query.Builder) *query.Builder
		subsetting bool // LIMIT/OFFSET trims the answer: membership check only
		distinct   bool
	}{
		{name: "plain"},
		{name: "distinct", mod: func(b *query.Builder) *query.Builder { return b.Distinct() }, distinct: true},
		{name: "limit", mod: func(b *query.Builder) *query.Builder { return b.Limit(5) }, subsetting: true},
		{name: "offset", mod: func(b *query.Builder) *query.Builder { return b.Offset(3) }, subsetting: true},
		{name: "distinct-limit", mod: func(b *query.Builder) *query.Builder { return b.Distinct().Limit(4) },
			subsetting: true, distinct: true},
		{name: "limit-offset", mod: func(b *query.Builder) *query.Builder { return b.Limit(5).Offset(2) },
			subsetting: true},
	}
	for _, shape := range shapes {
		for _, m := range mods {
			t.Run(shape+"/"+m.name, func(t *testing.T) {
				q := env.shape(t, shape, m.mod)
				oracle := orderedKeys(t, env.eng, q, 1)
				// The unmodified answer bounds what subsetting modes may emit.
				full := oracle
				if m.subsetting || m.distinct {
					full = orderedKeys(t, env.eng, env.shape(t, shape, nil), 1)
				}
				if len(full) == 0 {
					t.Fatalf("fixture produced no rows for %s", shape)
				}
				fullSet := multiset(full)

				// Ordered parallel must be byte-identical, row for row.
				par := orderedKeys(t, env.eng, q, 4)
				if fmt.Sprint(par) != fmt.Sprint(oracle) {
					t.Fatalf("ordered parallel diverged from sequential oracle\n got %d rows\nwant %d rows", len(par), len(oracle))
				}

				// Ordered delivery is nothing more than the streamed multiset
				// collected, canonically sorted, and run through the modifiers.
				var rows []Row
				if _, err := env.eng.ExecuteStream(context.Background(), env.shape(t, shape, nil),
					Config{Mode: Full, EvalWorkers: 4}, func(r Row) bool {
						rows = append(rows, slices.Clone(r))
						return true
					}); err != nil {
					t.Fatal(err)
				}
				sortRows(rows)
				var viaSink []string
				buf := newProjectionBuffer(q)
				for _, r := range applyModifiers(q, rows) {
					viaSink = append(viaSink, projectRow(q, r, buf).Key())
				}
				if !slices.Equal(viaSink, oracle) {
					t.Fatalf("ordered output is not collect + sortRows + applyModifiers over the streamed rows (%d vs %d rows)",
						len(viaSink), len(oracle))
				}

				for _, workers := range []int{1, 4} {
					got := streamedKeys(t, env.eng, q, workers)
					if len(got) != len(oracle) {
						t.Fatalf("unordered workers=%d emitted %d rows, oracle has %d", workers, len(got), len(oracle))
					}
					if m.distinct {
						if len(multiset(got)) != len(got) {
							t.Fatalf("unordered workers=%d emitted duplicate rows under DISTINCT", workers)
						}
					}
					if m.subsetting {
						// Any subset of the full answer with the right cardinality
						// is correct; multiplicity must not exceed the answer's.
						for k, n := range multiset(got) {
							if n > fullSet[k] {
								t.Fatalf("unordered workers=%d emitted row %d times, answer has it %d times", workers, n, fullSet[k])
							}
						}
					} else if !sameMultiset(got, oracle) {
						t.Fatalf("unordered workers=%d row multiset diverged from oracle", workers)
					}
				}
			})
		}
	}
}

// TestCrossModeEquivalenceAllEngineModes runs the plain variant of each
// shape through every ablation mode under parallel evaluation: the
// optimization level must never change the answer.
func TestCrossModeEquivalenceAllEngineModes(t *testing.T) {
	env := newEquivEnv(t)
	for _, shape := range []string{"star", "path", "cross", "disconnected"} {
		q := env.shape(t, shape, nil)
		oracle := orderedKeys(t, env.eng, q, 1)
		for _, mode := range allModes {
			res, err := env.eng.Execute(q, Config{Mode: mode, EvalWorkers: 4})
			if err != nil {
				t.Fatalf("%s/%v: %v", shape, mode, err)
			}
			var got []string
			res.EachProjected(func(r Row) bool { got = append(got, r.Key()); return true })
			if fmt.Sprint(got) != fmt.Sprint(oracle) {
				t.Fatalf("%s/%v: rows diverged from sequential Full oracle (%d vs %d rows)",
					shape, mode, len(got), len(oracle))
			}
		}
	}
}
