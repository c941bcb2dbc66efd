package assembly

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gstored/internal/fragment"
	"gstored/internal/lec"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
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
// edges between one pair of vertices and an edge-label variable.
var queryShapes = [][][3]string{
	{{"?x", "p0", "?y"}, {"?y", "p1", "?z"}},
	{{"?x", "p0", "?y"}, {"?y", "p1", "?z"}, {"?x", "p1", "?w"}},
	{{"?x", "p0", "?y"}, {"?y", "p1", "?z"}, {"?z", "p0", "?x"}},
	{{"?x", "p0", "?y"}, {"?x", "p1", "?y"}},
	{{"?x", "?p", "?y"}, {"?y", "p1", "?z"}},
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
// no join code with assembly — for LEC assembly, the Basic join and
// Prune-then-LEC alike.
func TestDistributedEqualsCentralized(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nv := 4 + r.Intn(10)
		ne := 8 + r.Intn(28)
		for i := 0; i < ne; i++ {
			g.AddIRIs(fmt.Sprintf("v%d", r.Intn(nv)), fmt.Sprintf("p%d", r.Intn(2)), fmt.Sprintf("v%d", r.Intn(nv)))
		}
		st := store.FromGraph(g)
		shape := r.Intn(len(queryShapes))
		q := buildShape(g.Dict, queryShapes[shape])

		// Centralized answers.
		want := map[string]bool{}
		for _, b := range st.Match(q) {
			want[answerKey(q, b.Vertices, b.Vars)] = true
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
			}, func(b store.Binding) bool {
				got[answerKey(q, b.Vertices, b.Vars)] = true
				return true
			})
			ms, err := partial.Compute(f, q, partial.Options{})
			if err != nil {
				return false
			}
			pms = append(pms, ms...)
		}
		features, featureOf := lec.Compute(pms)
		pruned := lec.Prune(features, q)
		var kept []*partial.Match
		for i, pm := range pms {
			if pruned.Retained[featureOf[i]] {
				kept = append(kept, pm)
			}
		}
		for _, pipeline := range []struct {
			name   string
			pms    []*partial.Match
			useLEC bool
		}{{"LEC", pms, true}, {"Basic", pms, false}, {"Prune-then-LEC", kept, true}} {
			results, _ := Assemble(pipeline.pms, q, Options{UseLEC: pipeline.useLEC})
			merged := map[string]bool{}
			for k := range got {
				merged[k] = true
			}
			for _, res := range results {
				merged[answerKey(q, res.Vec, res.EdgeVars)] = true
			}
			if !reflect.DeepEqual(merged, want) {
				t.Logf("seed %d, shape %d, %s: %d answers, centralized has %d", seed, shape, pipeline.name, len(merged), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
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
		fullKeys := map[string]bool{}
		for _, r := range full {
			fullKeys[r.Key()] = true
		}
		for _, r := range pruned {
			if !fullKeys[r.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
