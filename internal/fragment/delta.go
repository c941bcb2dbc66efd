package fragment

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// ApplyDelta materializes the distributed graph over newGlobal — the
// store after a mutation of inserted and deleted triples — by patching
// only the fragments the delta touches and sharing every other Fragment
// with the receiver. d itself is never modified: in-flight executions
// holding the old generation keep a consistent cluster.
//
// A triple touches the fragments owning its two endpoints (for a
// crossing edge, both hold a replica per Definition 1), so those are
// exactly the fragments whose stores, internal vertex sets and crossing
// lists can differ; any vertex disappearing from an untouched fragment
// would require deleting one of its edges, which would have touched that
// fragment. Each touched fragment receives its share of the delta — the
// triples with an endpoint it owns — through the same copy-on-write
// Store.Apply that produced newGlobal, so the work is proportional to
// the delta plus shallow per-fragment copies, and the result equals
// Build over newGlobal field for field (the tests' oracle).
//
// a must cover every vertex of newGlobal (extend an existing assignment
// over inserted vertices with Assignment.WithVertices). Endpoints the
// assignment does not cover fail the call before anything is built.
// The second result lists the IDs of the touched fragments in ascending
// order — the epoch install ships exactly these fragments to their sites
// and lets every other site carry its fragment forward.
func (d *Distributed) ApplyDelta(newGlobal *store.Store, a *partition.Assignment, inserted, deleted []rdf.Triple) (*Distributed, []int, error) {
	if a.K != len(d.Fragments) {
		return nil, nil, fmt.Errorf("fragment: delta assignment has K=%d, cluster has %d fragments", a.K, len(d.Fragments))
	}
	// shares[i] is fragment i's part of the delta: {inserted, deleted}.
	shares := make([][2][]rdf.Triple, a.K)
	for kind, batch := range [2][]rdf.Triple{inserted, deleted} {
		for _, t := range batch {
			var owners [2]int
			for j, v := range [2]rdf.TermID{t.S, t.O} {
				f, ok := a.Lookup(v)
				if !ok {
					return nil, nil, fmt.Errorf("fragment: delta endpoint %d not covered by the assignment", v)
				}
				if f < 0 || f >= a.K {
					return nil, nil, fmt.Errorf("fragment: delta endpoint %d assigned to fragment %d of %d", v, f, a.K)
				}
				owners[j] = f
			}
			shares[owners[0]][kind] = append(shares[owners[0]][kind], t)
			if owners[1] != owners[0] {
				shares[owners[1]][kind] = append(shares[owners[1]][kind], t)
			}
		}
	}

	next := &Distributed{
		Assignment: a,
		Dict:       d.Dict,
		Global:     newGlobal,
		Fragments:  slices.Clone(d.Fragments), // untouched ones stay shared
	}
	ids := make([]int, 0, a.K) // non-nil even when empty: nil means "all" to the install
	for i, share := range shares {
		if len(share[0])+len(share[1]) > 0 {
			next.Fragments[i] = d.Fragments[i].patched(newGlobal, a, share[0], share[1])
			ids = append(ids, i)
		}
	}
	return next, ids, nil
}

// patched returns f after its share of a delta, leaving f untouched. It
// follows Store.Apply's multigraph rules step for step — a delete drops
// every instance of a present triple and is a no-op for an absent or
// repeated one, then each insert adds one instance — so the edge count
// and the crossing list stay in step with the store.
func (f *Fragment) patched(newGlobal *store.Store, a *partition.Assignment, ins, del []rdf.Triple) *Fragment {
	next := &Fragment{
		ID:               f.ID,
		Store:            f.Store.Apply(ins, del),
		internal:         maps.Clone(f.internal),
		Crossing:         slices.Clone(f.Crossing),
		NumInternalEdges: f.NumInternalEdges,
	}
	owns := func(v rdf.TermID) bool { return a.FragmentOf(v) == f.ID }
	// count is how many instances of t enter (n > 0) or leave (n < 0).
	count := func(t rdf.Triple, n int) {
		if owns(t.S) && owns(t.O) {
			next.NumInternalEdges += n
			return
		}
		at := sort.Search(len(next.Crossing), func(i int) bool { return !next.Crossing[i].Less(t) })
		if n < 0 {
			next.Crossing = slices.Delete(next.Crossing, at, at-n)
		} else {
			next.Crossing = slices.Insert(next.Crossing, at, t)
		}
	}
	// V_i follows the delta's endpoints (a vertex it does not name cannot
	// have appeared or vanished); newGlobal says which of them remain.
	dropped := make(map[rdf.Triple]bool, len(del))
	for _, t := range del {
		if n := f.Store.CountTriples(t.S, t.P, t.O); n > 0 && !dropped[t] {
			dropped[t] = true
			count(t, -n)
		}
		for _, v := range [2]rdf.TermID{t.S, t.O} {
			if owns(v) && !newGlobal.HasVertex(v) {
				delete(next.internal, v)
			}
		}
	}
	for _, t := range ins {
		count(t, 1)
		for _, v := range [2]rdf.TermID{t.S, t.O} {
			if owns(v) {
				next.internal[v] = true
			}
		}
	}
	return next
}
