package fragment

import (
	"fmt"
	"testing"

	"gstored/internal/paperexample"
	"gstored/internal/rdf"
	"gstored/internal/store"
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
		d.Fragments[0].internal.add(ex.Graph.Dict.Encode(rdf.NewIRI("http://ex/ghost")))
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
		ex, d := fresh()
		// An internal edge between two of F1's vertices that the global
		// graph lacks: no vertex set moves, only the edge count.
		f := d.Fragments[0]
		extra := rdf.Triple{S: ex.V[1], P: ex.Graph.Dict.Encode(rdf.NewIRI("http://ex/extra")), O: ex.V[2]}
		f.Store = store.New(ex.Graph.Dict, append(f.Store.Triples(), extra))
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

// numInternalEdges is |E_i|: the edges of f's store with both endpoints
// in V_i.
func numInternalEdges(f *Fragment) int {
	n := 0
	for _, t := range f.Store.Triples() {
		if f.IsInternal(t.S) && f.IsInternal(t.O) {
			n++
		}
	}
	return n
}

// NumExtended returns |V_i^e|.
func (f *Fragment) NumExtended() int { return f.Store.NumVertices() - f.internal.n }

// CheckInvariants verifies Definition 1 on the built fragments: internal
// vertex sets partition V; crossing edges are replicated at exactly the two
// fragments owning their endpoints; the vertices a fragment's store holds
// beyond V_i (its derived V_i^e) are exactly the far endpoints of its
// crossing edges.
func (d *Distributed) CheckInvariants() error {
	seen := make(map[rdf.TermID]int)
	for _, f := range d.Fragments {
		for _, v := range f.InternalVertices() {
			if prev, dup := seen[v]; dup {
				return fmt.Errorf("fragment: vertex %d internal to both %d and %d", v, prev, f.ID)
			}
			seen[v] = f.ID
		}
	}
	for _, v := range d.Global.Vertices() {
		if _, ok := seen[v]; !ok {
			return fmt.Errorf("fragment: vertex %d internal nowhere", v)
		}
	}
	totalInternal, totalCrossing := 0, 0
	for _, f := range d.Fragments {
		totalInternal += numInternalEdges(f)
		totalCrossing += f.Crossing.Len()
		far := make(map[rdf.TermID]bool)
		for _, t := range f.Crossing.Flat() {
			fs, okS := seen[t.S]
			fo, okO := seen[t.O]
			if !okS || !okO {
				return fmt.Errorf("fragment %d: crossing edge %v has an endpoint internal nowhere", f.ID, t)
			}
			if fs == fo {
				return fmt.Errorf("fragment %d: non-crossing edge %v recorded as crossing", f.ID, t)
			}
			if fs != f.ID && fo != f.ID {
				return fmt.Errorf("fragment %d: crossing edge %v touches neither endpoint", f.ID, t)
			}
			if fs == f.ID {
				far[t.O] = true
			} else {
				far[t.S] = true
			}
		}
		if len(far) != f.NumExtended() {
			return fmt.Errorf("fragment %d: %d extended vertices, but its crossing edges have %d far endpoints", f.ID, f.NumExtended(), len(far))
		}
	}
	if totalInternal+totalCrossing/2 != d.Global.Len() {
		return fmt.Errorf("fragment: edge conservation violated: %d internal + %d/2 crossing != %d total",
			totalInternal, totalCrossing, d.Global.Len())
	}
	return nil
}
