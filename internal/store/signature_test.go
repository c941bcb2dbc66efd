package store

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gstored/internal/query"
	"gstored/internal/rdf"
)

// TestSignatureSkipIsImplied is the exactness argument of the signature
// test's via edge, checked on the random multigraphs and the query shapes
// TestMatchAgainstBruteForce draws, self-loops included: for every data
// edge and every query edge it can match, skipping that query edge at
// either endpoint gives the verdict of the full test, and Candidates,
// which skips the edge its seeds came from, equals the set the full test
// and the constant edges admit among all vertices. CandidatesFunc hands
// its keep test the lists Adjacency would answer, via's included.
func TestSignatureSkipIsImplied(t *testing.T) {
	x, y, z, w := query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w")
	a, b := query.Var("a"), query.Var("b")
	p0, p1, v0, v1 := query.IRI("p0"), query.IRI("p1"), query.IRI("v0"), query.IRI("v1")
	shapes := [][][3]query.Node{
		{{x, p0, y}, {y, p1, z}},
		{{x, p0, y}, {x, p0, y}, {y, p1, z}},
		{{x, a, y}, {x, b, y}},
		{{x, p0, y}, {x, a, y}, {y, a, z}},
		{{x, p0, x}, {x, p1, y}},
		{{x, a, x}, {y, a, x}},
		{{x, a, y}, {y, a, z}},
		{{v0, p0, y}, {y, p1, z}},
		{{x, p0, y}, {y, a, v1}},
		{{x, p0, y}, {y, p1, z}, {z, a, x}},
		{{x, p0, y}, {z, p1, w}},
		{{x, a, y}, {z, a, w}},
		{{x, p0, y}, {z, p1, v1}},
		{{x, a, y}, {z, a, v1}},
		{{v0, p0, v1}, {v1, p1, y}},
		{{v0, a, y}, {y, a, z}},
		{{v0, a, v0}, {x, p0, v0}},
		{{x, p0, y}, {y, a, z}, {x, p1, w}},
	}
	rejected := 0 // full-test rejections of a vertex at the end of a matching edge
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		randomGraphTriples(r, g, 5, 2, 8+r.Intn(8))
		for _, tr := range g.Triples[:r.Intn(4)] { // second instances
			g.Triples = append(g.Triples, tr)
		}
		st := FromGraph(g)
		for _, sh := range shapes {
			qb := query.NewBuilder(g.Dict)
			for _, p := range sh {
				qb.Triple(p[0], p[1], p[2])
			}
			q := qb.MustBuild()
			for _, tr := range st.Triples() {
				for ei, e := range q.Edges {
					from, to := q.Vertices[e.From], q.Vertices[e.To]
					if (!e.HasVarLabel() && e.Label != tr.P) || (e.From == e.To && tr.S != tr.O) ||
						(!from.IsVar() && from.Const != tr.S) || (!to.IsVar() && to.Const != tr.O) {
						continue
					}
					for _, end := range [2]struct {
						qv int
						u  rdf.TermID
					}{{e.From, tr.S}, {e.To, tr.O}} {
						full := st.signatureOK(q, end.qv, end.u, -1, nil)
						if !full {
							rejected++
						}
						if st.signatureOK(q, end.qv, end.u, ei, nil) != full {
							t.Logf("seed %d %s: %s matched by %v: skipping it at vertex %d decides %v, the full test %v",
								seed, q, q.EdgeString(ei), tr, end.qv, !full, full)
							return false
						}
					}
				}
			}
			for qv, v := range q.Vertices {
				if !v.IsVar() {
					continue
				}
				var want []rdf.TermID
				for _, u := range st.Vertices() {
					if st.signatureOK(q, qv, u, -1, nil) && st.constantsOK(q, qv, u) {
						want = append(want, u)
					}
				}
				if got := st.Candidates(q, qv); !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Logf("seed %d %s: Candidates(%d) = %v, want %v", seed, q, qv, got, want)
					return false
				}
				// CandidatesFunc: admit narrows the same set, and keep sees
				// what Adjacency answers for every incident edge but loops.
				odd := func(u rdf.TermID) bool { return u%2 == 1 }
				sameAdj := true
				got := st.CandidatesFunc(q, qv, odd, func(u rdf.TermID, adj [][]HalfEdge) bool {
					for i, e := range q.Edges {
						if (e.From == qv) != (e.To == qv) && !reflect.DeepEqual(adj[i], st.Adjacency(u, e.From == qv, e.Label)) {
							t.Logf("seed %d %s: CandidatesFunc(%d) handed %d for %s %v, Adjacency %v", seed, q, qv, u, q.EdgeString(i), adj[i], st.Adjacency(u, e.From == qv, e.Label))
							sameAdj = false
						}
					}
					return true
				})
				if want := slices.DeleteFunc(want, func(u rdf.TermID) bool { return !odd(u) }); !sameAdj || !slices.Equal(got, want) {
					t.Logf("seed %d %s: CandidatesFunc(%d) = %v, want %v", seed, q, qv, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if rejected == 0 {
		t.Error("the full test never rejected an end of a matching edge: skipping was not exercised")
	}
}
