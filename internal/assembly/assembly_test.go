package assembly

import (
	"fmt"
	"math/rand"
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

	lecRes, lecStats := LEC(pms, ex.Query)
	if got := resultVecs(ex, lecRes); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("LEC assembly:\n got %v\nwant %v", got, want)
	}
	basicRes, basicStats := Basic(pms, ex.Query)
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
	all, _ := LEC(pms, ex.Query)
	pruned, _ := LEC(kept, ex.Query)
	if fmt.Sprint(resultVecs(ex, all)) != fmt.Sprint(resultVecs(ex, pruned)) {
		t.Error("pruning changed assembly results")
	}
}

func TestAssemblyEmpty(t *testing.T) {
	ex := paperexample.New()
	rs, stats := LEC(nil, ex.Query)
	if len(rs) != 0 || stats.States != 0 {
		t.Errorf("unexpected output on empty input")
	}
}

// TestDistributedEqualsCentralized: on random graphs, partitionings and a
// fixed query, local complete matches + assembled crossing matches must
// equal the centralized answer set.
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
		q := query.NewBuilder(g.Dict).
			Triple(query.Var("x"), query.IRI("p0"), query.Var("y")).
			Triple(query.Var("y"), query.IRI("p1"), query.Var("z")).
			MustBuild()

		// Centralized answers.
		want := map[string]bool{}
		for _, b := range st.Match(q) {
			want[fmt.Sprint(b.Vertices)] = true
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
				got[fmt.Sprint(b.Vertices)] = true
				return true
			})
			ms, err := partial.Compute(f, q, partial.Options{})
			if err != nil {
				return false
			}
			pms = append(pms, ms...)
		}
		for _, variant := range []func([]*partial.Match, *query.Graph) ([]Result, Stats){LEC, Basic} {
			results, _ := variant(pms, q)
			merged := map[string]bool{}
			for k := range got {
				merged[k] = true
			}
			for _, res := range results {
				merged[fmt.Sprint(res.Vec)] = true
			}
			if len(merged) != len(want) {
				return false
			}
			for k := range want {
				if !merged[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
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
		full, _ := LEC(pms, q)
		pruned, _ := LEC(kept, q)
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
