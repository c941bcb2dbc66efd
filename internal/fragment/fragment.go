// Package fragment materializes a distributed RDF graph (Definition 1 of
// the paper) from a vertex-disjoint partitioning: each fragment holds its
// internal vertices and edges plus replicas of all crossing edges and the
// extended vertices they introduce.
package fragment

import (
	"fmt"

	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/runs"
	"gstored/internal/store"
)

// Fragment is F_i = (V_i ∪ V_i^e, E_i ∪ E_i^c, Σ_i), a pure function of
// its edge set and V_i (Definition 1): newFragment is the one place that
// function is written down. Its Store indexes the internal edges together
// with the crossing-edge replicas, so local matching sees exactly the
// fragment of Definition 1.
type Fragment struct {
	ID int

	// Store indexes E_i ∪ E_i^c.
	Store *store.Store

	// internal is V_i, a paged bitset over term IDs shared page by page
	// with the generation Apply patched this one from. V_i^e is not
	// stored: it is every other vertex of Store (see IsExtended).
	internal vertexSet

	// Crossing lists E_i^c, the crossing-edge replicas stored at this
	// fragment, in (S,P,O) order, one entry per edge instance: runs that
	// Apply writes one at a time.
	Crossing runs.List[rdf.Triple]

	// crossCount counts Crossing's instances by label and internal end:
	// crossCount[p][0] those with an internal subject, [1] those with an
	// internal object; crossTotal sums every label. newFragment builds
	// both with Crossing and Apply moves them by the delta.
	crossCount map[rdf.TermID][2]int
	crossTotal [2]int

	// NumInternalEdges is |E_i|.
	NumInternalEdges int
}

// newFragment builds fragment id from triples = E_i ∪ E_i^c, which must
// be in (S,P,O) order, and internal = V_i, which it keeps. An edge with
// both endpoints in V_i is internal, one with exactly one is a crossing
// replica; an edge with neither, an edge out of order and an internal
// vertex with no edge are errors (the inputs may come off the wire).
func newFragment(id int, dict *rdf.Dictionary, triples []rdf.Triple, internal vertexSet) (*Fragment, error) {
	f := &Fragment{ID: id, internal: internal, crossCount: make(map[rdf.TermID][2]int)}
	var crossing []rdf.Triple
	for i, t := range triples {
		if i > 0 && t.Less(triples[i-1]) {
			return nil, fmt.Errorf("fragment %d: edge %v out of (S,P,O) order", id, t)
		}
		switch s, o := internal.has(t.S), internal.has(t.O); {
		case s && o:
			f.NumInternalEdges++
		case s || o:
			crossing = append(crossing, t)
			f.countCrossing(t, s, 1)
		default:
			return nil, fmt.Errorf("fragment %d: edge %v has no internal endpoint", id, t)
		}
	}
	f.Crossing = runs.Of(crossing)
	f.Store = store.New(dict, triples)
	for _, v := range internal.members() {
		if !f.Store.HasVertex(v) {
			return nil, fmt.Errorf("fragment %d: internal vertex %d has no edge", id, v)
		}
	}
	return f, nil
}

// countCrossing adds n instances of crossing edge t, whose subject is
// internal when s, to the label table.
func (f *Fragment) countCrossing(t rdf.Triple, s bool, n int) {
	side := 1
	if s {
		side = 0
	}
	c := f.crossCount[t.P]
	c[side] += n
	f.crossCount[t.P] = c
	f.crossTotal[side] += n
}

// CrossingCount is the number of crossing-edge instances stored at f
// that carry label p (any label when p is rdf.NoTerm) and whose subject
// (out) or object (!out) is the internal end. It reads a table kept
// with Crossing, so it costs one lookup.
func (f *Fragment) CrossingCount(p rdf.TermID, out bool) int {
	c := f.crossTotal
	if p != rdf.NoTerm {
		c = f.crossCount[p]
	}
	if out {
		return c[0]
	}
	return c[1]
}

// IsInternal reports whether v ∈ V_i.
func (f *Fragment) IsInternal(v rdf.TermID) bool { return f.internal.has(v) }

// IsExtended reports whether v ∈ V_i^e: a vertex of the fragment that
// is not internal is the far endpoint of a crossing edge.
func (f *Fragment) IsExtended(v rdf.TermID) bool { return !f.internal.has(v) && f.Store.HasVertex(v) }

// NumExtended returns |V_i^e|.
func (f *Fragment) NumExtended() int { return f.Store.NumVertices() - f.internal.n }

// InternalVertices returns V_i in ascending ID order.
func (f *Fragment) InternalVertices() []rdf.TermID { return f.internal.members() }

// Distributed is the full distributed RDF graph: all fragments plus the
// assignment that produced them. The dictionary is shared.
type Distributed struct {
	Fragments  []*Fragment
	Assignment *partition.Assignment
	Dict       *rdf.Dictionary
	// Global is the store over the whole graph: the write path's source of
	// truth (updates patch it, repartitioning rebuilds the fragments from
	// it), the store the coordinator plans on, and the tests' oracle.
	Global *store.Store
}

// Build splits the graph in st into fragments per assignment a. Every
// vertex of st must be covered by a (see partition.Assignment.Validate).
func Build(st *store.Store, a *partition.Assignment) (*Distributed, error) {
	if err := a.Validate(st); err != nil {
		return nil, err
	}
	// One pass in (S,P,O) order buckets every edge at the fragments owning
	// its endpoints — a crossing edge at both (Def. 1 items 3-4) — so each
	// bucket arrives in the order newFragment wants.
	internal := make([]vertexSet, a.K)
	triples := make([][]rdf.Triple, a.K)
	for _, s := range st.Vertices() {
		fs := a.FragmentOf(s)
		internal[fs].add(s)
		for _, he := range st.Out(s) {
			t := rdf.Triple{S: s, P: he.P, O: he.V}
			triples[fs] = append(triples[fs], t)
			if fo := a.FragmentOf(he.V); fo != fs {
				triples[fo] = append(triples[fo], t)
			}
		}
	}
	d := &Distributed{
		Assignment: a,
		Dict:       st.Dict,
		Global:     st,
		Fragments:  make([]*Fragment, a.K),
	}
	for i := range d.Fragments {
		f, err := newFragment(i, st.Dict, triples[i], internal[i])
		if err != nil {
			return nil, err
		}
		d.Fragments[i] = f
	}
	return d, nil
}

// CheckInvariants verifies Definition 1 on the built fragments: internal
// vertex sets partition V; crossing edges are replicated at exactly the two
// fragments owning their endpoints; the vertices a fragment's store holds
// beyond V_i (its derived V_i^e) are exactly the far endpoints of its
// crossing edges. Intended for tests and debugging.
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
		totalInternal += f.NumInternalEdges
		totalCrossing += f.Crossing.Len()
		far := make(map[rdf.TermID]bool)
		for _, t := range f.Crossing.Flat() {
			fs, okS := d.Assignment.Lookup(t.S)
			fo, okO := d.Assignment.Lookup(t.O)
			if !okS || !okO {
				return fmt.Errorf("fragment %d: crossing edge %v has an endpoint the assignment does not cover", f.ID, t)
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
