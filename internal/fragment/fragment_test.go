package fragment

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"gstored/internal/paperexample"
	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

func TestBuildPaperExample(t *testing.T) {
	ex := paperexample.New()
	d, err := Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(d.Fragments) != 3 {
		t.Fatalf("%d fragments", len(d.Fragments))
	}
	f1 := d.Fragments[0]

	// Example 1: V^e_1 = {006, 012} and E^c_1 = {001→006, 006→005, 001→012}.
	if f1.NumExtended() != 2 {
		t.Errorf("F1 extended = %d, want 2", f1.NumExtended())
	}
	for _, n := range []int{6, 12} {
		if !f1.IsExtended(ex.V[n]) {
			t.Errorf("vertex %03d should be extended in F1", n)
		}
	}
	if f1.Crossing.Len() != 3 {
		t.Errorf("F1 crossing edges = %d, want 3", f1.Crossing.Len())
	}
	if n := len(f1.InternalVertices()); n != 5 {
		t.Errorf("F1 internal vertices = %d, want 5", n)
	}
	if f1.NumInternalEdges != 3 {
		t.Errorf("F1 internal edges = %d, want 3 (name, birthDate, label)", f1.NumInternalEdges)
	}
	// The crossing replica 006→005 must be visible in F1's store.
	inf, _ := ex.Graph.Dict.Lookup(rdf.NewIRI(paperexample.PredMainInterest))
	if !f1.Store.HasTriple(ex.V[6], inf, ex.V[5]) {
		t.Error("F1 store is missing the 006-mainInterest->005 crossing replica")
	}
	// F2: extended {001, 005, 013, 019}; crossing {001→006, 006→005,
	// 014→013, 014→019}.
	f2 := d.Fragments[1]
	if f2.NumExtended() != 4 {
		t.Errorf("F2 extended = %d, want 4", f2.NumExtended())
	}
	if f2.Crossing.Len() != 4 {
		t.Errorf("F2 crossing = %d, want 4", f2.Crossing.Len())
	}
	// F3: extended {001, 014}; crossing {001→012, 014→013, 014→019}.
	f3 := d.Fragments[2]
	if f3.NumExtended() != 2 {
		t.Errorf("F3 extended = %d, want 2", f3.NumExtended())
	}
	if f3.Crossing.Len() != 3 {
		t.Errorf("F3 crossing = %d, want 3", f3.Crossing.Len())
	}
	// Crossing classification: exactly one end internal.
	if f1.IsInternal(ex.V[1]) == f1.IsInternal(ex.V[6]) {
		t.Error("001→006 should be crossing for F1")
	}
	if f1.IsInternal(ex.V[1]) != f1.IsInternal(ex.V[3]) {
		t.Error("001→003 is internal to F1")
	}
}

func TestBuildRejectsIncompleteAssignment(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	st := store.FromGraph(g)
	a := &partition.Assignment{K: 2, Frag: map[rdf.TermID]int{}}
	if _, err := Build(st, a); err == nil {
		t.Error("expected error for unassigned vertices")
	}
}

// buildWith partitions st with strat into k fragments and builds them.
func buildWith(st *store.Store, strat partition.Strategy, k int) (*Distributed, error) {
	a, err := strat.Partition(st, k)
	if err != nil {
		return nil, err
	}
	return Build(st, a)
}

func TestBuildWithStrategies(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < 40; i++ {
		g.AddIRIs(fmt.Sprintf("http://h%d.x/v%d", i%3, i), "p", fmt.Sprintf("http://h%d.x/v%d", (i+1)%3, (i+7)%40))
	}
	st := store.FromGraph(g)
	for _, s := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
		d, err := buildWith(st, s, 4)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := d.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestSingleFragment(t *testing.T) {
	ex := paperexample.New()
	a := &partition.Assignment{K: 1, Frag: map[rdf.TermID]int{}}
	for _, v := range ex.Store.Vertices() {
		a.Frag[v] = 0
	}
	d, err := Build(ex.Store, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	f := d.Fragments[0]
	if f.Crossing.Len() != 0 || f.NumExtended() != 0 {
		t.Error("single fragment should have no crossing edges")
	}
	if f.Store.Len() != ex.Store.Len() {
		t.Errorf("single fragment holds %d of %d triples", f.Store.Len(), ex.Store.Len())
	}
}

// TestFragmentEdgePreservation: every global triple appears either as one
// internal copy or as exactly two crossing replicas.
func TestFragmentEdgePreservationProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nv := 4 + r.Intn(20)
		ne := 5 + r.Intn(50)
		for i := 0; i < ne; i++ {
			g.AddIRIs(fmt.Sprintf("v%d", r.Intn(nv)), fmt.Sprintf("p%d", r.Intn(3)), fmt.Sprintf("v%d", r.Intn(nv)))
		}
		st := store.FromGraph(g)
		k := 1 + r.Intn(4)
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for _, v := range st.Vertices() {
			a.Frag[v] = r.Intn(k)
		}
		d, err := Build(st, a)
		if err != nil {
			return false
		}
		if d.CheckInvariants() != nil {
			return false
		}
		// Per-triple instance conservation.
		count := 0
		for _, f := range d.Fragments {
			count += f.Store.Len()
		}
		crossing := 0
		for _, f := range d.Fragments {
			crossing += f.Crossing.Len()
		}
		return count == st.Len()+crossing/2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
