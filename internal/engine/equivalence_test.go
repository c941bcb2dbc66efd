package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gstored/internal/fragment"
	"gstored/internal/lec"
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

// shape builds one of the structural query classes over the fixture
// predicates. mod applies the modifier combination under test.
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
	case "chain":
		// Three edges in a row: the shortest path that is not a star.
		b.Triple(query.Var("x"), query.IRI("http://ex.org/p0"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("http://ex.org/p1"), query.Var("z")).
			Triple(query.Var("z"), query.IRI("http://ex.org/p2"), query.Var("w"))
	case "tree":
		// Three edges, two at the root and one below it: not a star
		// either, and covers of up to four LEC features.
		b.Triple(query.Var("x"), query.IRI("http://ex.org/p0"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("http://ex.org/p1"), query.Var("z")).
			Triple(query.Var("x"), query.IRI("http://ex.org/p2"), query.Var("w"))
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

// orderedRows runs the ordered path in mode and returns the projected
// rows in their served order, with the run's stats.
func orderedRows(t *testing.T, e *Engine, q *query.Graph, mode Mode, workers int) ([]Row, Stats) {
	t.Helper()
	res, err := e.Execute(q, Config{Mode: mode, EvalWorkers: workers})
	if err != nil {
		t.Fatalf("%v width %d: %v", mode, workers, err)
	}
	return projectedRows(res), res.Stats
}

// projectedRows copies r's rows out restricted to its projection.
func projectedRows(r *Result) []Row {
	var rows []Row
	r.EachProjected(func(row Row) bool {
		rows = append(rows, slices.Clone(row))
		return true
	})
	return rows
}

// streamedRows runs the unordered streaming path in mode and returns the
// emitted projected rows in emission order.
func streamedRows(t *testing.T, e *Engine, q *query.Graph, mode Mode, workers int) []Row {
	t.Helper()
	rows, err := streamRows(e, q, Config{Mode: mode, EvalWorkers: workers})
	if err != nil {
		t.Fatalf("%v width %d streamed: %v", mode, workers, err)
	}
	return rows
}

// streamRows copies out the projected rows ExecuteStream emits.
func streamRows(e *Engine, q *query.Graph, cfg Config) ([]Row, error) {
	var rows []Row
	_, err := e.ExecuteStream(context.Background(), q, cfg, func(r Row) bool {
		rows = append(rows, slices.Clone(r))
		return true
	})
	return rows, err
}

// sameRows reports whether a and b are the same rows in the same order.
func sameRows(a, b []Row) bool { return slices.EqualFunc(a, b, slices.Equal[Row]) }

// sortedRows returns rows copied into canonical order.
func sortedRows(rows []Row) []Row {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, slices.Compare[Row])
	return rows
}

// sameMultiset reports whether a and b hold the same rows, each as often.
func sameMultiset(a, b []Row) bool { return sameRows(sortedRows(a), sortedRows(b)) }

// subMultiset reports whether every row of a is in b at least as often as
// in a.
func subMultiset(a, b []Row) bool {
	b = sortedRows(b)
	j := 0
	for _, r := range sortedRows(a) {
		for j < len(b) && slices.Compare(b[j], r) < 0 {
			j++
		}
		if j == len(b) || !slices.Equal(b[j], r) {
			return false
		}
		j++
	}
	return true
}

// hasDuplicates reports whether some row occurs twice in rows.
func hasDuplicates(rows []Row) bool {
	return len(slices.CompactFunc(sortedRows(rows), slices.Equal[Row])) != len(rows)
}

// TestCrossModeEquivalence is the cross-mode equivalence harness: every
// query shape × modifier combination runs through sequential vs
// parallel evaluation and ordered vs unordered delivery, and all modes
// must agree with the sequential ordered oracle.
//
//   - Ordered delivery is deterministic: identical row sequences
//     regardless of worker count.
//   - Ordered delivery equals an independent reference over the streamed
//     rows: sorted canonically, deduplicated by projected key with a map
//     under DISTINCT, then sliced by OFFSET and LIMIT (referenceModified).
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
				oracle, _ := orderedRows(t, env.eng, q, Full, 1)
				// The unmodified answer bounds what subsetting modes may emit.
				full := oracle
				if m.subsetting || m.distinct {
					full, _ = orderedRows(t, env.eng, env.shape(t, shape, nil), Full, 1)
				}
				if len(full) == 0 {
					t.Fatalf("fixture produced no rows for %s", shape)
				}

				// Ordered parallel must be byte-identical, row for row.
				par, _ := orderedRows(t, env.eng, q, Full, 4)
				if !sameRows(par, oracle) {
					t.Fatalf("ordered parallel diverged from sequential oracle\n got %d rows\nwant %d rows", len(par), len(oracle))
				}

				// Ordered delivery is the streamed multiset in canonical
				// order with the modifiers applied, per the reference.
				var rows []Row
				if _, err := env.eng.ExecuteStream(context.Background(), env.shape(t, shape, nil),
					Config{Mode: Full, EvalWorkers: 4}, func(r Row) bool {
						rows = append(rows, slices.Clone(r))
						return true
					}); err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(rows, slices.Compare[Row])
				limit := -1
				if q.HasLimit {
					limit = q.Limit
				}
				want := referenceModified(&Result{Query: q, Rows: rows}, q.Distinct, limit, q.Offset)
				if !sameRows(want, oracle) {
					t.Fatalf("ordered output differs from the reference modifiers over the streamed rows (%d vs %d rows)",
						len(want), len(oracle))
				}

				for _, workers := range []int{1, 4} {
					got := streamedRows(t, env.eng, q, Full, workers)
					if len(got) != len(oracle) {
						t.Fatalf("unordered workers=%d emitted %d rows, oracle has %d", workers, len(got), len(oracle))
					}
					if m.distinct {
						if hasDuplicates(got) {
							t.Fatalf("unordered workers=%d emitted duplicate rows under DISTINCT", workers)
						}
					}
					if m.subsetting {
						// Any subset of the full answer with the right cardinality
						// is correct; multiplicity must not exceed the answer's.
						if !subMultiset(got, full) {
							t.Fatalf("unordered workers=%d emitted a row more often than the answer has it", workers)
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
		oracle, _ := orderedRows(t, env.eng, q, Full, 1)
		for _, mode := range allModes {
			got, _ := orderedRows(t, env.eng, q, mode, 4)
			if !sameRows(got, oracle) {
				t.Fatalf("%s/%v: rows diverged from sequential Full oracle (%d vs %d rows)",
					shape, mode, len(got), len(oracle))
			}
		}
	}
}

// walkCounters are the Stats the LEC path's walk and expansion produce.
func walkCounters(s Stats) [4]int {
	return [4]int{s.JoinAttempts, s.NumLECFeatures, s.NumRetainedPartialMatches, s.NumCrossingMatches}
}

// TestWalkWidthEquivalence: the feature walk fans its roots out on the
// evaluation pool, and nothing observable depends on the pool's width —
// ordered rows are byte-identical, streamed rows multiset-equal and the
// walk's counters equal at EvalWorkers 1, 2 and 8 — while every
// non-star execution, in every mode, performs exactly one closure walk.
func TestWalkWidthEquivalence(t *testing.T) {
	env := newEquivEnv(t)
	for _, shape := range []string{"chain", "tree"} {
		q := env.shape(t, shape, nil)
		for _, mode := range allModes {
			var oracle []Row
			var counters [4]int
			for _, workers := range []int{1, 2, 8} {
				cfg := Config{Mode: mode, EvalWorkers: workers}
				before := lec.Walks()
				res, err := env.eng.Execute(q, cfg)
				if err != nil {
					t.Fatalf("%s/%v/%d: %v", shape, mode, workers, err)
				}
				if n := lec.Walks() - before; n != 1 {
					t.Errorf("%s/%v/%d: %d closure walks, want exactly 1", shape, mode, workers, n)
				}
				ordered := projectedRows(res)
				var streamed []Row
				sres, err := env.eng.ExecuteStream(context.Background(), q, cfg, func(r Row) bool {
					streamed = append(streamed, slices.Clone(r))
					return true
				})
				if err != nil {
					t.Fatalf("%s/%v/%d streamed: %v", shape, mode, workers, err)
				}
				if workers == 1 {
					oracle, counters = ordered, walkCounters(res.Stats)
					if counters[3] == 0 {
						t.Fatalf("%s: fixture assembles no crossing match", shape)
					}
				}
				if !sameRows(ordered, oracle) {
					t.Errorf("%s/%v/%d: ordered rows differ from width 1 (%d vs %d)", shape, mode, workers, len(ordered), len(oracle))
				}
				if !sameMultiset(streamed, oracle) {
					t.Errorf("%s/%v/%d: streamed rows are not width 1's multiset (%d vs %d)", shape, mode, workers, len(streamed), len(oracle))
				}
				if got := walkCounters(res.Stats); got != counters {
					t.Errorf("%s/%v/%d: ordered counters %v, width 1 has %v", shape, mode, workers, got, counters)
				}
				if got := walkCounters(sres.Stats); got != counters {
					t.Errorf("%s/%v/%d: streamed counters %v, width 1 has %v", shape, mode, workers, got, counters)
				}
			}
		}
	}
}

// inWalkChunk accepts a stack inside a chunk of the closure walk.
func inWalkChunk(functions []string) bool {
	return slices.ContainsFunc(functions, func(f string) bool { return strings.Contains(f, "gstored/internal/lec.(*walker") })
}

// TestWalkStopsEarly: a cancellation that lands while eight chunks walk
// ends the execution with the context's error and leaves no goroutine
// behind; a LIMIT that is met mid-expansion (one crossing match past the
// local ones — the walk itself emits nothing, so a LIMIT cannot be met
// inside it) stops there, at every width.
func TestWalkStopsEarly(t *testing.T) {
	env := newEquivEnv(t)
	q := env.shape(t, "tree", nil)
	full, err := env.eng.Execute(q, Config{Mode: Full, EvalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.NumCrossingMatches < 2 {
		t.Fatalf("fixture assembles %d crossing matches, want several", full.Stats.NumCrossingMatches)
	}

	goroutines := runtime.NumGoroutine()
	for _, mode := range []Mode{LA, LO, Full} {
		parent, cancel := context.WithCancel(context.Background())
		err := runUnder(&stackCancelCtx{Context: parent, trip: inWalkChunk}, env.eng, q, Config{Mode: mode, EvalWorkers: 8})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled from inside the walk", mode, err)
		}
	}
	// A helper's deferred release runs a moment before it exits.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the canceled walks, %d before", runtime.NumGoroutine(), goroutines)
		}
	}

	limited := env.shape(t, "tree", func(b *query.Builder) *query.Builder { return b.Limit(full.Stats.NumLocalMatches + 1) })
	for _, workers := range []int{1, 2, 8} {
		var rows []Row
		res, err := env.eng.ExecuteStream(context.Background(), limited, Config{Mode: Full, EvalWorkers: workers}, func(r Row) bool {
			rows = append(rows, slices.Clone(r))
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(rows) != limited.Limit || !res.Stats.EarlyStop {
			t.Errorf("workers=%d: %d rows, early stop %v; want %d rows and an early stop", workers, len(rows), res.Stats.EarlyStop, limited.Limit)
		}
		if !subMultiset(rows, full.Rows) {
			t.Errorf("workers=%d: a row emitted more often than the answer has it", workers)
		}
	}
}
