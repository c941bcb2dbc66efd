package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// tinyGraph builds a small social graph used across tests:
//
//	alice --knows--> bob --knows--> carol
//	alice --knows--> carol
//	alice --age--> "30"
//	bob   --age--> "30"
//	carol --likes--> alice
func tinyGraph() *rdf.Graph {
	g := rdf.NewGraph()
	g.AddIRIs("alice", "knows", "bob")
	g.AddIRIs("bob", "knows", "carol")
	g.AddIRIs("alice", "knows", "carol")
	g.Add(rdf.NewIRI("alice"), rdf.NewIRI("age"), rdf.NewLiteral("30"))
	g.Add(rdf.NewIRI("bob"), rdf.NewIRI("age"), rdf.NewLiteral("30"))
	g.AddIRIs("carol", "likes", "alice")
	return g
}

func id(t *testing.T, d *rdf.Dictionary, term rdf.Term) rdf.TermID {
	t.Helper()
	v, ok := d.Lookup(term)
	if !ok {
		t.Fatalf("term %s not in dictionary", term)
	}
	return v
}

func TestStoreIndexes(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	if st.Len() != 6 {
		t.Fatalf("Len = %d, want 6", st.Len())
	}
	if st.NumVertices() != 4 { // alice, bob, carol, "30" (predicates are not vertices)
		t.Fatalf("NumVertices = %d, want 4", st.NumVertices())
	}
	alice := id(t, g.Dict, rdf.NewIRI("alice"))
	bob := id(t, g.Dict, rdf.NewIRI("bob"))
	carol := id(t, g.Dict, rdf.NewIRI("carol"))
	knows := id(t, g.Dict, rdf.NewIRI("knows"))

	if !st.HasTriple(alice, knows, bob) {
		t.Error("missing alice knows bob")
	}
	if st.HasTriple(bob, knows, alice) {
		t.Error("phantom bob knows alice")
	}
	if got := len(st.Adjacency(alice, true, knows)); got != 2 {
		t.Errorf("alice has %d knows out-edges, want 2", got)
	}
	if got := len(st.Adjacency(carol, false, knows)); got != 2 {
		t.Errorf("carol has %d knows in-edges, want 2", got)
	}
	if ps, _ := st.Stats().Pred(knows); ps.Count != 3 {
		t.Errorf("Stats().Pred(knows).Count = %d, want 3", ps.Count)
	}
	if !st.HasVertex(carol) || st.HasVertex(knows) {
		t.Error("vertex membership wrong (predicates are not vertices)")
	}
}

func TestCountTriplesMultigraph(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	g.AddIRIs("a", "p", "b") // duplicate instance
	g.AddIRIs("a", "q", "b")
	st := FromGraph(g)
	a := id(t, g.Dict, rdf.NewIRI("a"))
	b := id(t, g.Dict, rdf.NewIRI("b"))
	p := id(t, g.Dict, rdf.NewIRI("p"))
	if got := st.CountTriples(a, p, b); got != 2 {
		t.Errorf("CountTriples = %d, want 2", got)
	}
}

// TestAdjacencyLabelRuns: Adjacency's label run equals a filter of the
// vertex's whole list, in both directions, on random lists of 0 to 300
// half-edges, with duplicate half-edges, for every label
// present, labels between, below and above them, and rdf.NoTerm; and
// HasTriple and CountTriples agree with a count of the same list.
func TestAdjacencyLabelRuns(t *testing.T) {
	const v = 1
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 40, 300} {
		for range 20 {
			var triples []rdf.Triple
			var want []HalfEdge // out-edges; in-edges mirror them
			for range n {
				he := HalfEdge{P: rdf.TermID(10 + 2*r.Intn(1+n/4)), V: rdf.TermID(2 + r.Intn(1+n/2))}
				want = append(want, he)
				triples = append(triples, rdf.Triple{S: v, P: he.P, O: he.V}, rdf.Triple{S: he.V, P: he.P, O: v})
			}
			slices.SortFunc(want, compareHalfEdges)
			st := New(rdf.NewDictionary(), triples)
			for _, out := range []bool{true, false} {
				if got := st.Adjacency(v, out, rdf.NoTerm); !slices.Equal(got, want) {
					t.Fatalf("n=%d out=%v: every label reads %v, want %v", n, out, got, want)
				}
				for p := rdf.TermID(8); p <= rdf.TermID(13+n/2); p++ {
					filtered := slices.DeleteFunc(slices.Clone(want), func(he HalfEdge) bool { return he.P != p })
					if got := st.Adjacency(v, out, p); !slices.Equal(got, filtered) && len(got)+len(filtered) > 0 {
						t.Fatalf("n=%d out=%v label %d: %v, want %v", n, out, p, got, filtered)
					}
				}
			}
			for _, he := range append(want, HalfEdge{P: 10, V: 1}, HalfEdge{P: 11, V: 2}) {
				count := 0
				for _, w := range want {
					if w == he {
						count++
					}
				}
				if got := st.CountTriples(v, he.P, he.V); got != count || st.HasTriple(v, he.P, he.V) != (count > 0) {
					t.Fatalf("n=%d: ⟨%d %d %d⟩ counts %d, want %d", n, v, he.P, he.V, got, count)
				}
			}
		}
	}
}

func bindingsAsStrings(t *testing.T, d *rdf.Dictionary, q *query.Graph, bs []Binding) []string {
	t.Helper()
	var out []string
	for _, b := range bs {
		row := ""
		for vi, name := range q.Vars {
			term := "NULL"
			if b.Vars[vi] != rdf.NoTerm {
				term = d.MustDecode(b.Vars[vi]).String()
			}
			row += "?" + name + "=" + term + " "
		}
		out = append(out, row)
	}
	sort.Strings(out)
	return out
}

func TestMatchSimplePattern(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		MustBuild()
	got := bindingsAsStrings(t, g.Dict, q, st.Match(q))
	want := []string{
		"?x=<alice> ?y=<bob> ",
		"?x=<alice> ?y=<carol> ",
		"?x=<bob> ?y=<carol> ",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

func TestMatchJoin(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	// ?x knows ?y . ?y knows ?z — only alice→bob→carol.
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		Triple(query.Var("y"), query.IRI("knows"), query.Var("z")).
		MustBuild()
	got := bindingsAsStrings(t, g.Dict, q, st.Match(q))
	want := []string{"?x=<alice> ?y=<bob> ?z=<carol> "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMatchConstantAnchors(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.IRI("alice"), query.IRI("knows"), query.Var("y")).
		Triple(query.Var("y"), query.IRI("age"), query.Term(rdf.NewLiteral("30"))).
		MustBuild()
	got := bindingsAsStrings(t, g.Dict, q, st.Match(q))
	want := []string{"?y=<bob> "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMatchCycle(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	// Triangle: ?x knows ?y . ?y knows ?z . ?z likes ?x
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		Triple(query.Var("y"), query.IRI("knows"), query.Var("z")).
		Triple(query.Var("z"), query.IRI("likes"), query.Var("x")).
		MustBuild()
	got := bindingsAsStrings(t, g.Dict, q, st.Match(q))
	want := []string{"?x=<alice> ?y=<bob> ?z=<carol> "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMatchHomomorphismCollapses(t *testing.T) {
	// ?x knows ?y . ?x knows ?z allows y == z (homomorphism, Def. 3).
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("z")).
		MustBuild()
	ms := st.Match(q)
	// alice: (bob,bob),(bob,carol),(carol,bob),(carol,carol); bob: (carol,carol)
	if len(ms) != 5 {
		t.Errorf("got %d matches, want 5: %v", len(ms), bindingsAsStrings(t, g.Dict, q, ms))
	}
}

func TestMatchVariablePredicate(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.IRI("carol"), query.Var("p"), query.Var("o")).
		MustBuild()
	got := bindingsAsStrings(t, g.Dict, q, st.Match(q))
	want := []string{"?p=<likes> ?o=<alice> "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMatchSharedPredicateVariable(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	g.AddIRIs("b", "p", "c")
	g.AddIRIs("b", "q", "d")
	st := FromGraph(g)
	// Same variable predicate on both edges: must bind consistently.
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.Var("pp"), query.Var("y")).
		Triple(query.Var("y"), query.Var("pp"), query.Var("z")).
		MustBuild()
	got := bindingsAsStrings(t, g.Dict, q, st.Match(q))
	want := []string{"?x=<a> ?pp=<p> ?y=<b> ?z=<c> "}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMatchMultiEdgeInjectivity(t *testing.T) {
	// Query has two parallel edges ?x --p--> ?y and ?x --?v--> ?y. Data has
	// only ONE p edge between a and b: the injective multi-set mapping of
	// Def. 3 forbids both query edges landing on the same instance unless a
	// second edge exists.
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("p"), query.Var("y")).
		Triple(query.Var("x"), query.Var("v"), query.Var("y")).
		MustBuild()
	if ms := st.Match(q); len(ms) != 0 {
		t.Errorf("expected 0 matches on single-edge data, got %d", len(ms))
	}

	g2 := rdf.NewGraph()
	g2.AddIRIs("a", "p", "b")
	g2.AddIRIs("a", "q", "b")
	st2 := FromGraph(g2)
	q2 := query.NewBuilder(g2.Dict).
		Triple(query.Var("x"), query.IRI("p"), query.Var("y")).
		Triple(query.Var("x"), query.Var("v"), query.Var("y")).
		MustBuild()
	ms := st2.Match(q2)
	// ?v must bind to q (the p instance is taken by the constant edge).
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	v, _ := g2.Dict.Lookup(rdf.NewIRI("q"))
	if ms[0].Vars[2] != v {
		t.Errorf("?v bound to %v, want <q>", ms[0].Vars[2])
	}
}

func TestMatchDuplicateTripleInstances(t *testing.T) {
	// With two identical p-instances, both parallel query edges can map.
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	g.AddIRIs("a", "p", "b")
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("p"), query.Var("y")).
		Triple(query.Var("x"), query.Var("v"), query.Var("y")).
		MustBuild()
	if ms := st.Match(q); len(ms) != 1 {
		t.Errorf("got %d matches, want 1", len(ms))
	}
}

func TestMatchSelfLoop(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "a")
	g.AddIRIs("a", "p", "b")
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("p"), query.Var("x")).
		MustBuild()
	ms := st.Match(q)
	if len(ms) != 1 {
		t.Fatalf("got %d matches, want 1", len(ms))
	}
	a, _ := g.Dict.Lookup(rdf.NewIRI("a"))
	if ms[0].Vars[0] != a {
		t.Error("self-loop bound wrong vertex")
	}
}

func TestMatchLimit(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		MustBuild()
	// The first batch is one row of three: declining it ends the search.
	n, calls := 0, 0
	st.MatchFunc(q, MatchOptions{}, func(rows [][]rdf.TermID) bool {
		calls++
		n += len(rows)
		return false
	})
	if n != 1 || calls != 1 {
		t.Errorf("yield-false stop yielded %d rows in %d batches, want 1 in 1", n, calls)
	}
}

func TestMatchVertexFilter(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	alice, _ := g.Dict.Lookup(rdf.NewIRI("alice"))
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		MustBuild()
	var got []Binding
	st.MatchFunc(q, MatchOptions{
		VertexFilter: func(qv int, u rdf.TermID) bool {
			// Forbid alice anywhere.
			return u != alice
		},
	}, func(rows [][]rdf.TermID) bool {
		for _, r := range rows {
			got = append(got, Binding{Vars: slices.Clone(r)})
		}
		return true
	})
	if len(got) != 1 { // only bob knows carol survives
		t.Errorf("got %d matches, want 1", len(got))
	}
}

func TestCandidates(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("knows"), query.Var("y")).
		Triple(query.Var("y"), query.IRI("age"), query.Var("a")).
		MustBuild()
	// ?y needs an incoming knows and an outgoing age: only bob.
	yIdx := -1
	for i, v := range q.Vertices {
		if v.IsVar() && q.Vars[v.Var] == "y" {
			yIdx = i
		}
	}
	cands := st.Candidates(q, yIdx)
	bob, _ := g.Dict.Lookup(rdf.NewIRI("bob"))
	if len(cands) != 1 || cands[0] != bob {
		t.Errorf("candidates(?y) = %v, want [bob]", cands)
	}
	// Constant vertex candidates.
	q2 := query.NewBuilder(g.Dict).
		Triple(query.IRI("alice"), query.IRI("knows"), query.Var("y")).
		MustBuild()
	c2 := st.Candidates(q2, 0)
	alice, _ := g.Dict.Lookup(rdf.NewIRI("alice"))
	if len(c2) != 1 || c2[0] != alice {
		t.Errorf("candidates(alice) = %v", c2)
	}
	// Absent constant.
	q3 := query.NewBuilder(g.Dict).
		Triple(query.IRI("nobody"), query.IRI("knows"), query.Var("y")).
		MustBuild()
	if c3 := st.Candidates(q3, 0); len(c3) != 0 {
		t.Errorf("candidates(absent) = %v, want empty", c3)
	}
	// An edge to a constant must exist at the candidate, under its label
	// or, for a variable label, under any.
	carol, _ := g.Dict.Lookup(rdf.NewIRI("carol"))
	for _, tc := range []struct {
		name     string
		s, p, o  query.Node
		extra    []query.Node // one more pattern on ?x, when set
		want     []rdf.TermID
		wantDesc string
	}{
		{"constant object", query.Var("x"), query.IRI("knows"), query.IRI("carol"), nil, []rdf.TermID{alice, bob}, "alice, bob"},
		{"constant object and signature", query.Var("x"), query.IRI("knows"), query.IRI("carol"),
			[]query.Node{query.Var("w"), query.IRI("knows"), query.Var("x")}, []rdf.TermID{bob}, "bob"},
		{"constant subject", query.IRI("alice"), query.IRI("knows"), query.Var("x"), nil, []rdf.TermID{bob, carol}, "bob, carol"},
		// Seeded from alice's knows targets {bob, carol}: carol has the
		// signature, and only the edge to the second constant drops it.
		{"joins two constants", query.Var("x"), query.Var("l"), query.IRI("carol"),
			[]query.Node{query.IRI("alice"), query.IRI("knows"), query.Var("x")}, []rdf.TermID{bob}, "bob"},
		{"variable label to a constant", query.Var("x"), query.Var("l"), query.IRI("alice"), nil, []rdf.TermID{carol}, "carol"},
		{"variable label from a constant", query.IRI("carol"), query.Var("l"), query.Var("x"), nil, []rdf.TermID{alice}, "alice"},
		{"no such edge", query.Var("x"), query.IRI("likes"), query.IRI("carol"), nil, nil, "nothing"},
	} {
		b := query.NewBuilder(g.Dict).Triple(tc.s, tc.p, tc.o)
		if tc.extra != nil {
			b.Triple(tc.extra[0], tc.extra[1], tc.extra[2])
		}
		qc := b.MustBuild()
		xIdx := -1
		for i, v := range qc.Vertices {
			if v.IsVar() && qc.Vars[v.Var] == "x" {
				xIdx = i
			}
		}
		got := st.Candidates(qc, xIdx)
		sort.Slice(tc.want, func(i, j int) bool { return tc.want[i] < tc.want[j] })
		if !reflect.DeepEqual(got, tc.want) && len(got)+len(tc.want) > 0 {
			t.Errorf("%s: candidates(?x) = %v, want %s", tc.name, got, tc.wantDesc)
		}
	}
}

// TestCandidatesKeepInternalBindings is the soundness net of the
// constant-aware set on a fragment's store: a store over every edge with
// an endpoint in a random V_i (Definition 1's E_i and E_i^c) must report,
// for each variable, every V_i vertex some match on the whole graph binds
// to it. Extended vertices are allowed to go missing: they do not see
// their own edges.
func TestCandidatesKeepInternalBindings(t *testing.T) {
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	p0, p1, a := query.IRI("p0"), query.IRI("p1"), query.Var("a")
	v0, v1 := query.IRI("v0"), query.IRI("v1")
	shapes := [][][3]query.Node{
		{{x, p0, v0}, {x, p1, y}},
		{{v0, p0, x}, {y, p1, x}},
		{{x, a, v1}, {x, p0, y}},
		{{v1, a, x}, {x, a, y}},
		{{x, p0, v0}, {x, p1, y}, {y, p0, v1}},
		{{x, p0, y}, {y, p1, z}, {z, a, v0}, {v1, p0, x}},
		{{x, p0, v0}, {x, p0, v0}},
		{{x, p0, x}, {x, a, v0}},
	}
	bound := 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		randomGraphTriples(r, g, 6, 2, 10+r.Intn(10))
		global := FromGraph(g)
		internal := make(map[rdf.TermID]bool)
		for _, u := range global.Vertices() {
			internal[u] = r.Intn(2) == 0
		}
		var own []rdf.Triple
		for _, tr := range g.Triples {
			if internal[tr.S] || internal[tr.O] {
				own = append(own, tr)
			}
		}
		frag := New(g.Dict, own)
		for _, sh := range shapes {
			b := query.NewBuilder(g.Dict)
			for _, p := range sh {
				b.Triple(p[0], p[1], p[2])
			}
			q := b.MustBuild()
			cands := make([]map[rdf.TermID]bool, len(q.Vertices))
			for qv := range q.Vertices {
				cands[qv] = make(map[rdf.TermID]bool)
				for _, u := range frag.Candidates(q, qv) {
					cands[qv][u] = true
				}
			}
			for _, m := range global.Match(q) {
				for qv, v := range q.Vertices {
					if !v.IsVar() || !internal[m.Vars[v.Var]] {
						continue
					}
					u := m.Vars[v.Var]
					bound++
					if !cands[qv][u] {
						t.Logf("seed %d %s: internal vertex %d bound to query vertex %d is no candidate", seed, q, u, qv)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if bound == 0 {
		t.Error("no match bound an internal vertex: the property was not exercised")
	}
}

func TestMatchNoResults(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.IRI("hates"), query.Var("y")).
		MustBuild()
	if ms := st.Match(q); len(ms) != 0 {
		t.Errorf("got %d matches for absent predicate", len(ms))
	}
}

func TestEmptyStore(t *testing.T) {
	d := rdf.NewDictionary()
	st := New(d, nil)
	q := query.NewBuilder(d).
		Triple(query.Var("x"), query.IRI("p"), query.Var("y")).
		MustBuild()
	if ms := st.Match(q); len(ms) != 0 {
		t.Errorf("empty store produced matches")
	}
	if st.Len() != 0 || st.NumVertices() != 0 {
		t.Error("empty store reports non-zero size")
	}
}

// randomGraphTriples builds a random multigraph over nv vertices and np
// predicates.
func randomGraphTriples(r *rand.Rand, g *rdf.Graph, nv, np, ne int) {
	for i := 0; i < ne; i++ {
		s := rdf.NewIRI("v" + string(rune('0'+r.Intn(nv))))
		o := rdf.NewIRI("v" + string(rune('0'+r.Intn(nv))))
		p := rdf.NewIRI("p" + string(rune('0'+r.Intn(np))))
		g.Add(s, p, o)
	}
}

// bruteForce renders the matches eachDefinitionMatch enumerates as
// rowString renders a Binding, sorted.
func bruteForce(st *Store, q *query.Graph, filter func(int, rdf.TermID) bool) []string {
	var rows []string
	eachDefinitionMatch(st, q, filter, func(_, vars []rdf.TermID) {
		rows = append(rows, rowString(Binding{Vars: vars}))
	})
	sort.Strings(rows)
	return rows
}

// eachDefinitionMatch enumerates the matches of q straight from
// Definition 3: every assignment of store vertices to query vertices and
// of predicates to label variables, kept when constants map to
// themselves, the filter admits every vertex, every query edge has a data
// edge, and the query edges joining one ordered vertex pair under one
// label number no more than that edge's instances. fn receives each
// match's vertices and variables (a variable that is also a label holds
// the label there, as in Binding); both slices are reused.
func eachDefinitionMatch(st *Store, q *query.Graph, filter func(int, rdf.TermID) bool, fn func(vs, vars []rdf.TermID)) {
	preds := st.Predicates()
	var labelVars []int
	isLabelVar := make(map[int]bool)
	for _, e := range q.Edges {
		if e.HasVarLabel() && !isLabelVar[e.LabelVar] {
			isLabelVar[e.LabelVar] = true
			labelVars = append(labelVars, e.LabelVar)
		}
	}
	vs := make([]rdf.TermID, len(q.Vertices))
	vars := make([]rdf.TermID, len(q.Vars))
	check := func() {
		type slot struct {
			from, to int
			p        rdf.TermID
		}
		uses := make(map[slot]int)
		for _, e := range q.Edges {
			p := e.Label
			if e.HasVarLabel() {
				p = vars[e.LabelVar]
			}
			sl := slot{e.From, e.To, p}
			uses[sl]++
			if uses[sl] > st.CountTriples(vs[e.From], p, vs[e.To]) {
				return
			}
		}
		fn(vs, vars)
	}
	var labels func(k int)
	labels = func(k int) {
		if k == len(labelVars) {
			check()
			return
		}
		for _, p := range preds {
			vars[labelVars[k]] = p
			labels(k + 1)
		}
	}
	var vertices func(qv int)
	vertices = func(qv int) {
		if qv == len(q.Vertices) {
			labels(0)
			return
		}
		v := q.Vertices[qv]
		for _, u := range st.Vertices() {
			if (!v.IsVar() && v.Const != u) || (filter != nil && !filter(qv, u)) {
				continue
			}
			vs[qv] = u
			if v.IsVar() {
				vars[v.Var] = u
			}
			vertices(qv + 1)
		}
	}
	vertices(0)
}

// rowString renders a binding by its variables. Where no variable is
// also an edge label — every shape TestMatchAgainstBruteForce draws —
// they and the query's constants fix every vertex's data vertex, so two
// bindings of one query render alike
// exactly when they bind every vertex and variable alike.
func rowString(b Binding) string { return fmt.Sprint(b.Vars) }

// TestMatchAgainstBruteForce cross-checks the matcher, binding for
// binding, against the from-the-definition enumerator on random
// multigraphs over the shapes the shared edge step must get right, each
// under the store's own plan and under a random edge order (any
// permutation is valid: one that leaves the pattern mid-way re-seeds and
// later closes the gap with both-bound probes), sequentially and
// chunked.
func TestMatchAgainstBruteForce(t *testing.T) {
	x, y, z, w := query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w")
	p0, p1 := query.IRI("p0"), query.IRI("p1")
	type pattern [3]query.Node
	shapes := []struct {
		name     string
		patterns []pattern
		filter   func(qv int, u rdf.TermID) bool
	}{
		{"path", []pattern{{x, p0, y}, {y, p1, z}}, nil},
		{"parallel constant labels", []pattern{{x, p0, y}, {x, p0, y}, {y, p1, z}}, nil},
		{"parallel variable labels", []pattern{{x, query.Var("a"), y}, {x, query.Var("b"), y}}, nil},
		{"parallel mixed", []pattern{{x, p0, y}, {x, query.Var("a"), y}, {y, query.Var("a"), z}}, nil},
		{"self-loop", []pattern{{x, p0, x}, {x, p1, y}}, nil},
		{"self-loop variable label", []pattern{{x, query.Var("a"), x}, {y, query.Var("a"), x}}, nil},
		{"shared label variable", []pattern{{x, query.Var("a"), y}, {y, query.Var("a"), z}}, nil},
		{"constant subject", []pattern{{query.IRI("v0"), p0, y}, {y, p1, z}}, nil},
		{"constant object", []pattern{{x, p0, y}, {y, query.Var("a"), query.IRI("v1")}}, nil},
		{"triangle", []pattern{{x, p0, y}, {y, p1, z}, {z, query.Var("a"), x}}, nil},
		{"disconnected", []pattern{{x, p0, y}, {z, p1, w}}, nil},
		{"disconnected shared label", []pattern{{x, query.Var("a"), y}, {z, query.Var("a"), w}}, nil},
		// The second component re-seeds from a constant's anchor.
		{"disconnected constant", []pattern{{x, p0, y}, {z, p1, query.IRI("v1")}}, nil},
		{"disconnected constant shared label", []pattern{{x, query.Var("a"), y}, {z, query.Var("a"), query.IRI("v1")}}, nil},
		{"two constant ends", []pattern{{query.IRI("v0"), p0, query.IRI("v1")}, {query.IRI("v1"), p1, y}}, nil},
		{"constant subject label variable", []pattern{{query.IRI("v0"), query.Var("a"), y}, {y, query.Var("a"), z}}, nil},
		{"self-loop at a constant", []pattern{{query.IRI("v0"), query.Var("a"), query.IRI("v0")}, {x, p0, query.IRI("v0")}}, nil},
		{"vertex filter", []pattern{{x, p0, y}, {y, query.Var("a"), z}, {x, p1, w}},
			func(qv int, u rdf.TermID) bool { return (int(u)+qv)%3 != 0 }},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			rows := 0
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				g := rdf.NewGraph()
				randomGraphTriples(r, g, 5, 2, 8+r.Intn(8))
				for _, tr := range g.Triples[:r.Intn(4)] { // second instances
					g.Triples = append(g.Triples, tr)
				}
				st := FromGraph(g)
				b := query.NewBuilder(g.Dict)
				for _, p := range sh.patterns {
					b.Triple(p[0], p[1], p[2])
				}
				q := b.MustBuild()
				want := bruteForce(st, q, sh.filter)
				rows += len(want)
				for _, order := range [][]int{nil, r.Perm(len(q.Edges))} {
					for _, width := range []int{1, 4} {
						var mu sync.Mutex
						var got []string
						st.MatchFunc(q, MatchOptions{VertexFilter: sh.filter, Order: order, Pool: pool.New(width)}, func(rows [][]rdf.TermID) bool {
							mu.Lock()
							for _, r := range rows {
								got = append(got, rowString(Binding{Vars: r}))
							}
							mu.Unlock()
							return true
						})
						sort.Strings(got)
						if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
							t.Logf("seed %d order %v width %d:\n got %v\nwant %v", seed, order, width, got, want)
							return false
						}
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
			if rows == 0 {
				t.Error("no graph had a match: the shape was not exercised")
			}
		})
	}
}

func TestTriplesRoundTrip(t *testing.T) {
	g := tinyGraph()
	st := FromGraph(g)
	ts := st.Triples()
	if len(ts) != 6 {
		t.Fatalf("Triples() returned %d", len(ts))
	}
	st2 := New(g.Dict, ts)
	if !reflect.DeepEqual(st.Triples(), st2.Triples()) {
		t.Error("re-indexing Triples() changed the set")
	}
}
