package assembly

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gstored/internal/fragment"
	"gstored/internal/lec"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

func paperPMs(t *testing.T) (*paperexample.Example, []*partial.Match) {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	var pms []*partial.Match
	for _, f := range d.Fragments {
		ms, err := partial.Compute(f, ex.Query, partial.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pms = append(pms, ms...)
	}
	return ex, pms
}

func resultVecs(ex *paperexample.Example, rs []Result) [][5]int {
	rev := make(map[rdf.TermID]int)
	for n, id := range ex.V {
		rev[id] = n
	}
	var out [][5]int
	for _, r := range rs {
		var v [5]int
		for i, id := range r.Vec {
			v[i] = rev[id]
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// TestPaperAssembly: both assembly algorithms recover exactly the four
// crossing matches of the running example (Example 3 plus the three
// implied by Fig. 1), including the three-way join PM1_1 ⋈ PM3_2 ⋈ PM3_1.
func TestPaperAssembly(t *testing.T) {
	ex, pms := paperPMs(t)
	want := append([][5]int(nil), paperexample.ExpectedCrossingMatches...)
	sort.Slice(want, func(i, j int) bool { return fmt.Sprint(want[i]) < fmt.Sprint(want[j]) })

	lecRes, lecStats := Assemble(pms, ex.Query, Options{UseLEC: true})
	if got := resultVecs(ex, lecRes); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("LEC assembly:\n got %v\nwant %v", got, want)
	}
	basicRes, basicStats := Assemble(pms, ex.Query, Options{})
	if got := resultVecs(ex, basicRes); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Basic assembly:\n got %v\nwant %v", got, want)
	}
	// The LEC variant must do no more join attempts than the basic one.
	if lecStats.JoinAttempts > basicStats.JoinAttempts {
		t.Errorf("LEC join attempts %d > basic %d", lecStats.JoinAttempts, basicStats.JoinAttempts)
	}
}

// TestAssemblyAfterPruning: pruning PM2_3 first must not change the
// results (Theorem 4 safety).
func TestAssemblyAfterPruning(t *testing.T) {
	ex, pms := paperPMs(t)
	features, featureOf := lec.Compute(pms)
	res := lec.Prune(features, ex.Query)
	var kept []*partial.Match
	for i, pm := range pms {
		if res.Retained[featureOf[i]] {
			kept = append(kept, pm)
		}
	}
	if len(kept) != 7 {
		t.Fatalf("pruning kept %d of 8 partial matches, want 7", len(kept))
	}
	all, _ := Assemble(pms, ex.Query, Options{UseLEC: true})
	pruned, _ := Assemble(kept, ex.Query, Options{UseLEC: true})
	if fmt.Sprint(resultVecs(ex, all)) != fmt.Sprint(resultVecs(ex, pruned)) {
		t.Error("pruning changed assembly results")
	}
}

func TestAssemblyEmpty(t *testing.T) {
	ex := paperexample.New()
	rs, stats := Assemble(nil, ex.Query, Options{UseLEC: true})
	if len(rs) != 0 || stats.States != 0 {
		t.Errorf("unexpected output on empty input")
	}
}

// queryShapes are the query graphs TestDistributedEqualsCentralized draws
// from: between them they exercise a branching vertex, a cycle, two query
// edges between one pair of vertices, an edge-label variable, and one
// edge-label variable on two edges — sharedLabelShape, whose LEC features
// hold partial matches that differ only in that label, so that expansion
// has multi-match features to take apart.
var queryShapes = [][][3]string{
	{{"?x", "p0", "?y"}, {"?y", "p1", "?z"}},
	{{"?x", "p0", "?y"}, {"?y", "p1", "?z"}, {"?x", "p1", "?w"}},
	{{"?x", "p0", "?y"}, {"?y", "p1", "?z"}, {"?z", "p0", "?x"}},
	{{"?x", "p0", "?y"}, {"?x", "p1", "?y"}},
	{{"?x", "?p", "?y"}, {"?y", "p1", "?z"}},
	{{"?x", "?p", "?y"}, {"?y", "p1", "?z"}, {"?z", "?p", "?w"}},
}

const sharedLabelShape = 5

// oneSided reports the precondition of the closure's side-split index
// (see lec.Walk) for the crossing edges the rule derives from pm: each
// has exactly one endpoint in pm's sign and exactly one data end
// internal to f, pm's fragment.
func oneSided(f *fragment.Fragment, q *query.Graph, pm *partial.Match) bool {
	for _, m := range partial.AppendCrossing(nil, q, pm.Vec, pm.EdgeVars, pm.Sign) {
		e := q.Edges[m.QEdge]
		if pm.Sign>>uint(e.From)&1 == pm.Sign>>uint(e.To)&1 || f.IsInternal(m.S) == f.IsInternal(m.O) {
			return false
		}
	}
	return true
}

func buildShape(dict *rdf.Dictionary, shape [][3]string) *query.Graph {
	node := func(s string) query.Node {
		if s[0] == '?' {
			return query.Var(s[1:])
		}
		return query.IRI(s)
	}
	b := query.NewBuilder(dict)
	for _, t := range shape {
		b.Triple(node(t[0]), node(t[1]), node(t[2]))
	}
	return b.MustBuild()
}

// vertexTerms returns the data vertex each query vertex takes in a
// binding whose variables are vars: its constant, or its variable's term
// (exact here: no shape has a variable that also labels an edge).
func vertexTerms(q *query.Graph, vars []rdf.TermID) []rdf.TermID {
	out := make([]rdf.TermID, len(q.Vertices))
	for i, v := range q.Vertices {
		out[i] = v.Const
		if v.IsVar() {
			out[i] = vars[v.Var]
		}
	}
	return out
}

// answerKey identifies one answer by its vertex assignment and its
// edge-label variable bindings; vars is indexed by query variable.
func answerKey(q *query.Graph, vertices, vars []rdf.TermID) string {
	labels := make([]rdf.TermID, 0, len(q.EdgeVars()))
	for _, ev := range q.EdgeVars() {
		labels = append(labels, vars[ev])
	}
	return fmt.Sprint(vertices, labels)
}

// TestDistributedEqualsCentralized: on random graphs, partitionings and
// query shapes, local complete matches + assembled crossing matches must
// equal the centralized answer set of store.Match — the oracle that shares
// no join code with assembly — for LEC assembly, the Basic join,
// Prune-then-LEC and pooled LEC assembly alike, none of them assembling one
// row twice; and every partial match and LEC feature the pipeline produces
// satisfies the side invariant the walk's index needs.
func TestDistributedEqualsCentralized(t *testing.T) {
	multi := 0 // retained features holding several partial matches, sharedLabelShape only
	check := func(seed int64, shape int) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nv := 4 + r.Intn(10)
		ne := 8 + r.Intn(28)
		for i := 0; i < ne; i++ {
			g.AddIRIs(fmt.Sprintf("v%d", r.Intn(nv)), fmt.Sprintf("p%d", r.Intn(2)), fmt.Sprintf("v%d", r.Intn(nv)))
		}
		st := store.FromGraph(g)
		q := buildShape(g.Dict, queryShapes[shape])

		// Centralized answers.
		want := map[string]bool{}
		for _, b := range st.Match(q) {
			want[answerKey(q, vertexTerms(q, b.Vars), b.Vars)] = true
		}

		k := 2 + r.Intn(3)
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for _, v := range st.Vertices() {
			a.Frag[v] = r.Intn(k)
		}
		d, err := fragment.Build(st, a)
		if err != nil {
			return false
		}
		got := map[string]bool{}
		var pms []*partial.Match
		for _, f := range d.Fragments {
			// Local complete matches: all vertices internal.
			f := f
			f.Store.MatchFunc(q, store.MatchOptions{
				VertexFilter: func(qv int, u rdf.TermID) bool { return f.IsInternal(u) },
			}, func(rows [][]rdf.TermID) bool {
				for _, row := range rows {
					got[answerKey(q, vertexTerms(q, row), row)] = true
				}
				return true
			})
			ms, err := partial.Compute(f, q, partial.Options{})
			if err != nil {
				return false
			}
			pms = append(pms, ms...)
		}
		for _, pm := range pms {
			if !oneSided(d.Fragments[pm.Frag], q, pm) {
				t.Logf("seed %d, shape %d: partial match %v sign %b maps an edge with both or neither endpoint internal", seed, shape, pm.Vec, pm.Sign)
				return false
			}
		}
		fs := lec.Group(q, partial.SetOf(q, pms))
		pruned := lec.Walk(fs, q, false, nil, nil, nil)
		var kept []*partial.Match
		for i, pm := range pms {
			if pruned.Retained[fs.FeatureOf[i]] {
				kept = append(kept, pm)
			}
		}
		for fi := range fs.Len() {
			if shape == sharedLabelShape && len(fs.PMs(fi)) > 1 && pruned.Retained[fi] {
				multi++
			}
		}
		for _, pipeline := range []struct {
			name     string
			assemble func() []Result
		}{
			{"LEC", func() []Result { rs, _ := Assemble(pms, q, Options{UseLEC: true}); return rs }},
			{"Basic", func() []Result { rs, _ := Assemble(pms, q, Options{}); return rs }},
			{"Prune-then-LEC", func() []Result { rs, _ := Assemble(kept, q, Options{UseLEC: true}); return rs }},
			{"pooled LEC", func() []Result { rs, _ := Assemble(pms, q, Options{UseLEC: true, Pool: pool.New(3)}); return rs }},
		} {
			merged := map[string]bool{}
			for k := range got {
				merged[k] = true
			}
			for _, res := range pipeline.assemble() {
				k := answerKey(q, res.Vec, res.EdgeVars)
				if merged[k] {
					t.Logf("seed %d, shape %d, %s: answer %s assembled twice", seed, shape, pipeline.name, k)
					return false
				}
				merged[k] = true
			}
			if !reflect.DeepEqual(merged, want) {
				t.Logf("seed %d, shape %d, %s: %d answers, centralized has %d", seed, shape, pipeline.name, len(merged), len(want))
				return false
			}
		}
		return true
	}
	prop := func(seed int64) bool { return check(seed, rand.New(rand.NewSource(seed)).Intn(len(queryShapes))) }
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
	// quick.Check draws its seeds from the clock; these do not move.
	for seed := int64(0); seed < 40; seed++ {
		if !check(seed, sharedLabelShape) {
			t.Errorf("seed %d, shared-label shape: distributed answers differ from centralized", seed)
		}
	}
	if multi == 0 {
		t.Error("no retained LEC feature of the shared-label shape held more than one partial match")
	}
}

// TestExpansionChecksEveryMember: the members of one LEC feature share
// their fragment, crossing edges and sign, not their other bindings, so
// expansion must test each of them against the partner (DESIGN.md "One
// join closure", deviation 2). The pipeline case: a→b twice, labelled p0
// and p1, gives fragment 0 two partial matches of ?x ?p ?y . ?y q ?z that
// differ only in ?p, and ?z ?p ?w in fragment 1 agrees with one of them.
// The synthetic case disagrees on an internal vertex instead. In both the
// partner's match comes first: merge overlays a later member onto an
// earlier one, so a disagreeing member ordered before the partner would be
// overwritten into a second copy of the agreeing row.
func TestExpansionChecksEveryMember(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p0", "b")
	g.AddIRIs("a", "p1", "b")
	g.AddIRIs("b", "q", "c")
	g.AddIRIs("c", "p0", "d")
	st := store.FromGraph(g)
	q := buildShape(g.Dict, [][3]string{{"?x", "?p", "?y"}, {"?y", "q", "?z"}, {"?z", "?p", "?w"}})
	id := func(s string) rdf.TermID {
		t.Helper()
		v, ok := g.Dict.Lookup(rdf.NewIRI(s))
		if !ok {
			t.Fatalf("term %s missing", s)
		}
		return v
	}
	a := &partition.Assignment{K: 2, Frag: map[rdf.TermID]int{id("a"): 0, id("b"): 0, id("c"): 1, id("d"): 1}}
	d, err := fragment.Build(st, a)
	if err != nil {
		t.Fatal(err)
	}
	var pms []*partial.Match
	for _, f := range slices.Backward(d.Fragments) {
		ms, err := partial.Compute(f, q, partial.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pms = append(pms, ms...)
	}

	// The rule makes y→z, 20→30, the one crossing edge of all three.
	x, y := []rdf.TermID{11, 20, 30, 0}, []rdf.TermID{12, 20, 30, 0}
	synthetic := []*partial.Match{
		{Frag: 1, Vec: []rdf.TermID{11, 20, 30, 40}, Sign: 0b1100},
		{Frag: 0, Vec: x, Sign: 0b0011},
		{Frag: 0, Vec: y, Sign: 0b0011},
	}
	path := buildShape(rdf.NewDictionary(), [][3]string{{"?x", "p", "?y"}, {"?y", "p", "?z"}, {"?z", "p", "?w"}})

	for _, tc := range []struct {
		name string
		pms  []*partial.Match
		q    *query.Graph
		want int
	}{{"edge label", pms, q, len(st.Match(q))}, {"internal vertex", synthetic, path, 1}} {
		sets := partial.SetOf(tc.q, tc.pms)
		fs := lec.Group(tc.q, sets)
		if !slices.ContainsFunc(fs.FeatureOf, func(fi int32) bool { return len(fs.PMs(int(fi))) == 2 }) {
			t.Fatalf("%s: no LEC feature holds two partial matches", tc.name)
		}
		var expanded []Result
		x := NewExpansion(sets, fs, Options{Emit: func(r Result) bool {
			expanded = append(expanded, Result{slices.Clone(r.Vec), slices.Clone(r.EdgeVars)})
			return true
		}})
		combos := 0
		walk := lec.Walk(fs, tc.q, false, nil, nil, func() lec.Sink {
			sink := x.Sink()
			return func(members []int) bool { combos++; return sink(members) }
		})
		if combos != 1 {
			t.Fatalf("%s: %d complete feature combinations, want 1", tc.name, combos)
		}
		stats := x.Stats(walk)
		if len(expanded) != 1 || stats.Results != 1 || tc.want != 1 {
			t.Errorf("%s: expansion produced %d rows (centralized: %d), want 1: the other member disagrees with the partner", tc.name, len(expanded), tc.want)
		}
		for _, useLEC := range []bool{true, false} {
			if rs, _ := Assemble(tc.pms, tc.q, Options{UseLEC: useLEC}); len(rs) != 1 || !reflect.DeepEqual(rs, expanded) {
				t.Errorf("%s: Assemble(UseLEC=%v) = %v, expansion %v", tc.name, useLEC, rs, expanded)
			}
		}
	}
}

// TestLECPathAllocations pins what the single walk bought on the heap:
// on LUBM(1) LQ7 (299 partial matches, 294 features), the walk with the
// expansion it drives allocates at most a third per feature of what
// lec.Prune plus the match-level assembly walk did before the two were
// fused (parentPerFeature, measured the same way before that change).
func TestLECPathAllocations(t *testing.T) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	st := store.FromGraph(ds.Graph)
	a, err := partition.Hash{}.Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := fragment.Build(st, a)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := ds.Query("LQ7")
	if err != nil {
		t.Fatal(err)
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		t.Fatal(err)
	}
	var sets []partial.Set
	for _, f := range d.Fragments {
		s, err := partial.ComputeSet(f, q, partial.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, s)
	}
	fs := lec.Group(q, sets)
	rows := 0
	opts := Options{Emit: func(Result) bool { rows++; return true }}
	allocs := testing.AllocsPerRun(20, func() {
		x := NewExpansion(sets, fs, opts)
		x.Stats(lec.Walk(fs, q, false, nil, nil, x.Sink))
	})
	if rows == 0 {
		t.Fatal("LQ7 assembled no crossing match")
	}
	const parentPerFeature = 24.72
	got := allocs / float64(fs.Len())
	t.Logf("%.0f allocations, %.2f per feature", allocs, got)
	if got > parentPerFeature/3 {
		t.Errorf("%.2f allocations per feature over %d features, want at most a third of the parent's %.2f", got, fs.Len(), parentPerFeature)
	}
}

// TestPruningNeverLosesResults: with LEC pruning applied first, the final
// answer set is unchanged (property form of Theorem 4).
func TestPruningNeverLosesResultsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nv := 4 + r.Intn(8)
		ne := 8 + r.Intn(20)
		for i := 0; i < ne; i++ {
			g.AddIRIs(fmt.Sprintf("v%d", r.Intn(nv)), fmt.Sprintf("p%d", r.Intn(2)), fmt.Sprintf("v%d", r.Intn(nv)))
		}
		st := store.FromGraph(g)
		q := query.NewBuilder(g.Dict).
			Triple(query.Var("x"), query.IRI("p0"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("p1"), query.Var("z")).
			Triple(query.Var("x"), query.IRI("p1"), query.Var("w")).
			MustBuild()
		k := 2 + r.Intn(2)
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for _, v := range st.Vertices() {
			a.Frag[v] = r.Intn(k)
		}
		d, err := fragment.Build(st, a)
		if err != nil {
			return false
		}
		var pms []*partial.Match
		for _, f := range d.Fragments {
			ms, err := partial.Compute(f, q, partial.Options{})
			if err != nil {
				return false
			}
			pms = append(pms, ms...)
		}
		features, featureOf := lec.Compute(pms)
		res := lec.Prune(features, q)
		var kept []*partial.Match
		for i, pm := range pms {
			if res.Retained[featureOf[i]] {
				kept = append(kept, pm)
			}
		}
		full, _ := Assemble(pms, q, Options{UseLEC: true})
		pruned, _ := Assemble(kept, q, Options{UseLEC: true})
		if len(full) != len(pruned) {
			return false
		}
		// Both are in canonical row order.
		return reflect.DeepEqual(full, pruned)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
