package fragment

import (
	"testing"

	"gstored/internal/paperexample"
	"gstored/internal/rdf"
)

// TestCheckInvariantsDetectsCorruption: each invariant violation must be
// caught (failure-injection on the distributed graph structure).
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	fresh := func() (*paperexample.Example, *Distributed) {
		ex := paperexample.New()
		d, err := Build(ex.Store, ex.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		return ex, d
	}

	t.Run("clean passes", func(t *testing.T) {
		_, d := fresh()
		if err := d.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("double ownership", func(t *testing.T) {
		ex, d := fresh()
		d.Fragments[1].internal.add(ex.V[1]) // 001 belongs to F1
		if err := d.CheckInvariants(); err == nil {
			t.Error("duplicate internal vertex not detected")
		}
	})

	t.Run("orphan vertex", func(t *testing.T) {
		ex, d := fresh()
		f := d.Fragments[0]
		f.internal = f.internal.with([]rdf.TermID{ex.V[1]}, func(rdf.TermID) bool { return false })
		if err := d.CheckInvariants(); err == nil {
			t.Error("unowned vertex not detected")
		}
	})

	t.Run("internal vertex outside the store", func(t *testing.T) {
		ex, d := fresh()
		// V_i^e is derived as the store's vertices beyond V_i, so a V_i
		// entry the store does not hold would miscount it.
		d.Fragments[0].internal.add(ex.Graph.Dict.EncodeIRI("http://ex/ghost"))
		if err := d.CheckInvariants(); err == nil {
			t.Error("internal vertex with no edge in the fragment not detected")
		}
	})

	t.Run("bogus crossing edge", func(t *testing.T) {
		ex, d := fresh()
		// 001→003 is internal to F1, not crossing.
		name, _ := ex.Graph.Dict.Lookup(rdf.NewIRI(paperexample.PredName))
		d.Fragments[0].Crossing = d.Fragments[0].Crossing.With([]rdf.Triple{{S: ex.V[1], P: name, O: ex.V[3]}}, nil, rdf.Triple.Compare)
		if err := d.CheckInvariants(); err == nil {
			t.Error("non-crossing edge recorded as crossing not detected")
		}
	})

	t.Run("edge conservation", func(t *testing.T) {
		_, d := fresh()
		d.Fragments[0].NumInternalEdges++
		if err := d.CheckInvariants(); err == nil {
			t.Error("edge count corruption not detected")
		}
	})
}

func TestInternalVerticesAccessor(t *testing.T) {
	ex, d := func() (*paperexample.Example, *Distributed) {
		ex := paperexample.New()
		d, _ := Build(ex.Store, ex.Assignment)
		return ex, d
	}()
	vs := d.Fragments[0].InternalVertices()
	if len(vs) != 5 {
		t.Fatalf("F1 internal vertices = %d, want 5", len(vs))
	}
	seen := map[rdf.TermID]bool{}
	for _, v := range vs {
		seen[v] = true
	}
	for _, n := range []int{1, 2, 3, 4, 5} {
		if !seen[ex.V[n]] {
			t.Errorf("vertex %03d missing from F1", n)
		}
	}
}
