package store

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gstored/internal/query"
	"gstored/internal/rdf"
)

// TestThroughAgainstMatches cross-checks Through, triple set by triple
// set, against the definition: some match of q (from the brute-force
// enumerator, which binds a variable's vertex and label occurrences
// apart as the matcher does) maps some query edge onto one of the
// triples. The shapes cover what the substitution must get
// right: constant ends and labels, self-loops, a label variable shared
// by two edges, a variable that is both a vertex and a label, parallel
// edges (instance counting) and a second component.
func TestThroughAgainstMatches(t *testing.T) {
	x, y, z, w, a := query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w"), query.Var("a")
	p0, p1 := query.IRI("p0"), query.IRI("p1")
	type pattern [3]query.Node
	shapes := []struct {
		name     string
		patterns []pattern
	}{
		{"path", []pattern{{x, p0, y}, {y, p1, z}}},
		{"constant ends", []pattern{{query.IRI("v0"), p0, y}, {y, a, query.IRI("v1")}}},
		{"self-loop", []pattern{{x, a, x}, {x, p1, y}}},
		{"shared label variable", []pattern{{x, a, y}, {z, a, w}}},
		{"vertex and label", []pattern{{x, a, y}, {a, p0, z}}},
		{"label as own subject", []pattern{{a, a, y}}},
		{"parallel", []pattern{{x, p0, y}, {x, p0, y}, {y, a, z}}},
		{"disconnected", []pattern{{x, p0, y}, {z, p1, query.IRI("v2")}}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			found := 0
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				g := rdf.NewGraph()
				randomGraphTriples(r, g, 5, 2, 8+r.Intn(8))
				// Predicates as vertices, so a variable can be both.
				for i := 0; i < 3; i++ {
					g.Add(rdf.NewIRI("p"+string(rune('0'+r.Intn(2)))), rdf.NewIRI("p0"), rdf.NewIRI("v"+string(rune('0'+r.Intn(5)))))
				}
				for _, tr := range g.Triples[:r.Intn(4)] { // second instances
					g.Triples = append(g.Triples, tr)
				}
				st := FromGraph(g)
				b := query.NewBuilder(g.Dict)
				for _, p := range sh.patterns {
					b.Triple(p[0], p[1], p[2])
				}
				q := b.MustBuild()
				// A few stored triples and one that may be absent.
				pool := st.Triples()
				var ts []rdf.Triple
				for i := r.Intn(3); i > 0; i-- {
					ts = append(ts, pool[r.Intn(len(pool))])
				}
				ts = append(ts, rdf.Triple{S: pool[r.Intn(len(pool))].S, P: pool[r.Intn(len(pool))].P, O: pool[r.Intn(len(pool))].O})
				in := make(map[rdf.Triple]bool)
				for _, t := range ts {
					in[t] = true
				}
				want := false
				eachDefinitionMatch(st, q, nil, func(vs, vars []rdf.TermID) {
					for _, e := range q.Edges {
						p := e.Label
						if e.HasVarLabel() {
							p = vars[e.LabelVar]
						}
						want = want || in[rdf.Triple{S: vs[e.From], P: p, O: vs[e.To]}]
					}
				})
				if want {
					found++
				}
				if got := st.Through(q, ts, func() bool { return false }); got != want {
					t.Logf("seed %d: Through(%v) = %v, want %v", seed, ts, got, want)
					return false
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
				t.Error(err)
			}
			if found == 0 {
				t.Error("no triple set was ever used by a match: the shape was not exercised")
			}
		})
	}
}

// TestThroughStops pins the budget contract: once stop reports true,
// Through answers false, whatever the matches.
func TestThroughStops(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).Triple(query.Var("x"), query.Var("p"), query.Var("y")).MustBuild()
	ts := st.Triples()
	if !st.Through(q, ts, func() bool { return false }) {
		t.Fatal("every stored triple matches ?x ?p ?y")
	}
	if st.Through(q, ts, func() bool { return true }) {
		t.Error("Through found a match after stop reported true")
	}
}
