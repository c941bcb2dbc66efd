package partition

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gstored/internal/rdf"
	"gstored/internal/store"
)

// fig8a builds the Fig. 8(a) scenario: all four crossing edges concentrate
// on one boundary vertex (hub h in fragment 0), |E_A| = 7 internal + 4
// crossing = 11, giving CostPartitioning = 2.5 × 11 = 27.5.
func fig8a() (*store.Store, *Assignment) {
	g := rdf.NewGraph()
	for i := 1; i <= 7; i++ {
		g.AddIRIs("h", "p", fmt.Sprintf("a%d", i))
	}
	for i := 1; i <= 4; i++ {
		g.AddIRIs("h", "c", fmt.Sprintf("b%d", i))
	}
	g.AddIRIs("b1", "p", "b2")
	g.AddIRIs("b3", "p", "b4")
	st := store.FromGraph(g)
	a := &Assignment{K: 2, Frag: map[rdf.TermID]int{}}
	for _, v := range st.Vertices() {
		name := g.Dict.MustDecode(v).Value
		if name[0] == 'b' {
			a.Frag[v] = 1
		} else {
			a.Frag[v] = 0
		}
	}
	return st, a
}

// fig8b builds the Fig. 8(b) scenario: five crossing edges scattered over
// two boundary vertices (3 on x, 2 on y), |E_A| = 8 internal + 5 crossing =
// 13, giving CostPartitioning = 1.8 × 13 = 23.4.
func fig8b() (*store.Store, *Assignment) {
	g := rdf.NewGraph()
	for i := 1; i <= 6; i++ {
		g.AddIRIs("x", "p", fmt.Sprintf("a%d", i))
	}
	g.AddIRIs("y", "p", "a1")
	g.AddIRIs("y", "p", "a2")
	g.AddIRIs("x", "c", "c1")
	g.AddIRIs("x", "c", "c2")
	g.AddIRIs("x", "c", "c3")
	g.AddIRIs("y", "c", "c4")
	g.AddIRIs("y", "c", "c5")
	g.AddIRIs("c1", "p", "c2")
	g.AddIRIs("c3", "p", "c4")
	g.AddIRIs("c5", "p", "c1")
	st := store.FromGraph(g)
	a := &Assignment{K: 2, Frag: map[rdf.TermID]int{}}
	for _, v := range st.Vertices() {
		name := g.Dict.MustDecode(v).Value
		if name[0] == 'c' {
			a.Frag[v] = 1
		} else {
			a.Frag[v] = 0
		}
	}
	return st, a
}

// balance counts the vertices placed in each fragment.
func balance(a *Assignment) []int {
	counts := make([]int, a.K)
	for _, f := range a.Frag {
		counts[f]++
	}
	return counts
}

func TestFig8CostModel(t *testing.T) {
	stA, aA := fig8a()
	costA := Cost(stA, aA)
	if costA.NumCrossing != 4 {
		t.Fatalf("fig8a crossing = %d, want 4", costA.NumCrossing)
	}
	if math.Abs(costA.EV-2.5) > 1e-9 {
		t.Errorf("fig8a EV = %v, want 2.5", costA.EV)
	}
	if costA.MaxFragmentEdges != 11 {
		t.Errorf("fig8a max fragment edges = %d, want 11", costA.MaxFragmentEdges)
	}
	if math.Abs(costA.Cost-27.5) > 1e-9 {
		t.Errorf("fig8a cost = %v, want 27.5 (paper, Section VII)", costA.Cost)
	}

	stB, aB := fig8b()
	costB := Cost(stB, aB)
	if costB.NumCrossing != 5 {
		t.Fatalf("fig8b crossing = %d, want 5", costB.NumCrossing)
	}
	if math.Abs(costB.EV-1.8) > 1e-9 {
		t.Errorf("fig8b EV = %v, want 1.8", costB.EV)
	}
	if costB.MaxFragmentEdges != 13 {
		t.Errorf("fig8b max fragment edges = %d, want 13", costB.MaxFragmentEdges)
	}
	if math.Abs(costB.Cost-23.4) > 1e-9 {
		t.Errorf("fig8b cost = %v, want 23.4 (paper, Section VII)", costB.Cost)
	}
	// The paper's conclusion: despite more crossing edges, (b) is better.
	if costB.Cost >= costA.Cost {
		t.Error("fig8b should be the cheaper partitioning")
	}
}

// clusteredGraph builds k dense clusters of size n joined by a few bridge
// edges — the friendly case for a min-cut partitioner.
func clusteredGraph(k, n int) *rdf.Graph {
	g := rdf.NewGraph()
	name := func(c, i int) string { return fmt.Sprintf("http://cluster%d.example/v%d", c, i) }
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if (i+j)%3 == 0 {
					g.AddIRIs(name(c, i), "p", name(c, j))
				}
			}
			g.AddIRIs(name(c, i), "p", name(c, (i+1)%n))
		}
	}
	for c := 0; c < k; c++ {
		g.AddIRIs(name(c, 0), "bridge", name((c+1)%k, 0))
	}
	return g
}

func TestHashPartitionCoversAndIsDeterministic(t *testing.T) {
	g := clusteredGraph(3, 10)
	st := store.FromGraph(g)
	a1, err := Hash{}.Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Validate(st); err != nil {
		t.Fatal(err)
	}
	a2, _ := Hash{}.Partition(st, 4)
	for v, f := range a1.Frag {
		if a2.Frag[v] != f {
			t.Fatal("hash partitioning is not deterministic")
		}
	}
	// All fragments should be non-empty on 30 vertices.
	for f, c := range balance(a1) {
		if c == 0 {
			t.Errorf("hash fragment %d is empty", f)
		}
	}
}

// TestHashFragmentIsTheHashRule: the one rule that places a vertex by
// hash is the Hash strategy's, applied pointwise, whether or not the
// vertex is in the graph the strategy ran on; WithVertices, kept for the
// benchmark driver, places nothing.
func TestHashFragmentIsTheHashRule(t *testing.T) {
	g := clusteredGraph(3, 10)
	st := store.FromGraph(g)
	a, err := Hash{}.Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range st.Vertices() {
		if f, _ := a.Lookup(v); f != HashFragment(g.Dict, v, 4) {
			t.Errorf("Hash placed %d in fragment %d, HashFragment says %d", v, f, HashFragment(g.Dict, v, 4))
		}
	}
	fresh := g.Dict.Encode(rdf.NewIRI("http://new.example/x"))
	if want := int(hashString("<http://new.example/x>") % 4); HashFragment(g.Dict, fresh, 4) != want {
		t.Errorf("HashFragment(fresh) = %d, want %d", HashFragment(g.Dict, fresh, 4), want)
	}
	if a.WithVertices(g.Dict, []rdf.TermID{fresh}) != a {
		t.Error("WithVertices did not return its receiver")
	}
	if _, ok := a.Lookup(fresh); ok {
		t.Error("WithVertices placed a vertex")
	}
}

func TestHashPartitionErrors(t *testing.T) {
	st := store.New(rdf.NewDictionary(), nil)
	if _, err := (Hash{}).Partition(st, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := (Metis{}).Partition(st, -1); err == nil {
		t.Error("metis k<0 should error")
	}
	if _, err := (SemanticHash{}).Partition(st, 0); err == nil {
		t.Error("semantic k=0 should error")
	}
}

func TestSemanticHashGroupsByHierarchy(t *testing.T) {
	g := rdf.NewGraph()
	// Two departments; each vertex has an attribute literal.
	for d := 0; d < 2; d++ {
		for i := 0; i < 5; i++ {
			s := fmt.Sprintf("http://dept%d.univ.edu/member%d", d, i)
			g.AddIRIs(s, "colleague", fmt.Sprintf("http://dept%d.univ.edu/member%d", d, (i+1)%5))
			g.Add(rdf.NewIRI(s), rdf.NewIRI("name"), rdf.NewLiteral(fmt.Sprintf("n-%d-%d", d, i)))
		}
	}
	st := store.FromGraph(g)
	a, err := SemanticHash{}.Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(st); err != nil {
		t.Fatal(err)
	}
	// All members of one department share a fragment.
	for d := 0; d < 2; d++ {
		want := -1
		for i := 0; i < 5; i++ {
			v, _ := g.Dict.Lookup(rdf.NewIRI(fmt.Sprintf("http://dept%d.univ.edu/member%d", d, i)))
			if want == -1 {
				want = a.Frag[v]
			} else if a.Frag[v] != want {
				t.Errorf("dept %d split across fragments", d)
			}
		}
	}
	// Literals are co-located with their subjects, so name edges are never
	// crossing.
	c := Cost(st, a)
	name := mustID(t, g.Dict, "name")
	for _, tr := range st.Triples() {
		if tr.P == name && a.Frag[tr.S] != a.Frag[tr.O] {
			t.Error("attribute literal separated from its subject")
		}
	}
	_ = c
}

func mustID(t *testing.T, d *rdf.Dictionary, iri string) rdf.TermID {
	t.Helper()
	id, ok := d.Lookup(rdf.NewIRI(iri))
	if !ok {
		t.Fatalf("%s not in dictionary", iri)
	}
	return id
}

func TestMetisFindsClusters(t *testing.T) {
	g := clusteredGraph(4, 12)
	st := store.FromGraph(g)
	ma, err := Metis{}.Partition(st, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ma.Validate(st); err != nil {
		t.Fatal(err)
	}
	ha, _ := Hash{}.Partition(st, 4)
	mc, hc := Cost(st, ma), Cost(st, ha)
	if mc.NumCrossing >= hc.NumCrossing {
		t.Errorf("metis cut %d should beat hash cut %d on clustered graph",
			mc.NumCrossing, hc.NumCrossing)
	}
	// Vertex balance within the imbalance bound.
	counts := balance(ma)
	total := 0
	for _, c := range counts {
		total += c
	}
	bound := int(1.10*float64(total)/4.0) + 1
	for f, c := range counts {
		if c > bound {
			t.Errorf("fragment %d has %d vertices, bound %d", f, c, bound)
		}
	}
}

func TestMetisMoreFragmentsThanVertices(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	st := store.FromGraph(g)
	a, err := Metis{}.Partition(st, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(st); err != nil {
		t.Fatal(err)
	}
}

func TestSelectBestPicksSmallestCost(t *testing.T) {
	g := clusteredGraph(3, 10)
	st := store.FromGraph(g)
	best, costs, err := SelectBest(st, 3, Hash{}, SemanticHash{}, Metis{})
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 3 {
		t.Fatalf("costs for %d strategies", len(costs))
	}
	bestCost := costs[best.StrategyName].Cost
	for name, c := range costs {
		if c.Cost < bestCost {
			t.Errorf("SelectBest chose %s (%.1f) but %s costs %.1f",
				best.StrategyName, bestCost, name, c.Cost)
		}
	}
	// Clustered graph with per-cluster URI prefixes: semantic or metis must
	// beat hash.
	if best.StrategyName == "hash" {
		t.Errorf("hash should not win on a clustered graph: %+v", costs)
	}
}

func TestSelectBestNoStrategies(t *testing.T) {
	st := store.New(rdf.NewDictionary(), nil)
	if _, _, err := SelectBest(st, 2); err == nil {
		t.Error("expected error with no strategies")
	}
}

func TestPartitionersCoverRandomGraphs(t *testing.T) {
	strategies := []Strategy{Hash{}, SemanticHash{}, Metis{}}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nv, ne := 5+r.Intn(30), 10+r.Intn(60)
		for i := 0; i < ne; i++ {
			g.AddIRIs(
				fmt.Sprintf("http://h%d.x/v%d", r.Intn(4), r.Intn(nv)),
				fmt.Sprintf("p%d", r.Intn(3)),
				fmt.Sprintf("http://h%d.x/v%d", r.Intn(4), r.Intn(nv)))
		}
		st := store.FromGraph(g)
		k := 1 + r.Intn(5)
		for _, s := range strategies {
			a, err := s.Partition(st, k)
			if err != nil || a.Validate(st) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCostEmptyAndNoCrossing(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	st := store.FromGraph(g)
	a := &Assignment{K: 2, Frag: map[rdf.TermID]int{}}
	for _, v := range st.Vertices() {
		a.Frag[v] = 0
	}
	c := Cost(st, a)
	if c.NumCrossing != 0 || c.EV != 0 || c.Cost != 0 {
		t.Errorf("no-crossing cost = %+v, want zeros", c)
	}
	if c.MaxFragmentEdges != 1 {
		t.Errorf("max fragment edges = %d", c.MaxFragmentEdges)
	}
}

func TestAssignmentLookup(t *testing.T) {
	st, a := fig8a()
	for _, v := range st.Vertices() {
		if f, ok := a.Lookup(v); !ok || f != a.Frag[v] {
			t.Fatalf("covered vertex %d: Lookup = %d, %v; want %d", v, f, ok, a.Frag[v])
		}
	}
	unknown := rdf.TermID(1 << 30)
	if _, ok := a.Lookup(unknown); ok {
		t.Error("Lookup invented an owner for an uncovered vertex")
	}
}
