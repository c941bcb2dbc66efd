package fragment

import (
	"fmt"
	"maps"
	"slices"

	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// Delta is one fragment's share of an update: the inserted and deleted
// triples with an endpoint the fragment owns, and Owned, those of the
// share's endpoints it owns, in strictly increasing order. It is all a
// site holding the fragment's previous generation needs to build the
// next one (Fragment.Apply): the global store stays with the
// coordinator.
type Delta struct {
	Inserted, Deleted []rdf.Triple
	Owned             []rdf.TermID
}

// Patch materializes the distributed graph over newGlobal — the store
// after a mutation of inserted and deleted triples — by applying to each
// fragment the delta touches its share of it, and sharing every other
// Fragment with the receiver. d itself is never modified: in-flight
// executions holding the old generation keep a consistent cluster.
//
// A triple touches the fragments owning its two endpoints (for a
// crossing edge, both hold a replica per Definition 1), so those are
// exactly the fragments whose stores, internal vertex sets and crossing
// lists can differ; any vertex disappearing from an untouched fragment
// would require deleting one of its edges, which would have touched that
// fragment. A touched fragment reads newGlobal's index; an untouched one
// keeps the one it read, which agrees with it at V_i's rows and at every
// half-edge with an end in V_i, all a fragment reads, as no triple of the
// delta has an end in its V_i. The owner of an endpoint is d's (Owner):
// the fragment whose V_i holds it, else the Hash strategy's pick, asked
// once per distinct endpoint of the delta. The work is proportional to
// the delta plus shallow per-fragment copies, and the result reads as
// Build over newGlobal, under that ownership (the tests' oracle).
//
// The second result holds one Delta per fragment, nil where the delta
// leaves the fragment untouched: the epoch install ships each share to
// its site, which applies it to its resident generation, and lets every
// other site carry its fragment forward.
func (d *Distributed) Patch(newGlobal *store.Store, inserted, deleted []rdf.Triple) (*Distributed, []*Delta, error) {
	// The delta's distinct endpoints, ascending, and each one's owner: a
	// share's Owned is its fragment's run of them, in order.
	ends := make([]rdf.TermID, 0, 2*(len(inserted)+len(deleted)))
	for _, batch := range [2][]rdf.Triple{inserted, deleted} {
		for _, t := range batch {
			ends = append(ends, t.S, t.O)
		}
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	owner := make([]int, len(ends))
	deltas := make([]*Delta, len(d.Fragments))
	for i, v := range ends {
		f := d.Owner(v)
		owner[i] = f
		if deltas[f] == nil {
			deltas[f] = &Delta{}
		}
		deltas[f].Owned = append(deltas[f].Owned, v)
	}
	ownerOf := func(v rdf.TermID) int {
		i, _ := slices.BinarySearch(ends, v)
		return owner[i]
	}
	for del, batch := range [2][]rdf.Triple{inserted, deleted} {
		for _, t := range batch {
			owners := [2]int{ownerOf(t.S), ownerOf(t.O)}
			for j, f := range owners {
				if j == 1 && f == owners[0] {
					break // an internal edge is one fragment's, once
				}
				if del == 1 {
					deltas[f].Deleted = append(deltas[f].Deleted, t)
				} else {
					deltas[f].Inserted = append(deltas[f].Inserted, t)
				}
			}
		}
	}

	next := &Distributed{
		Dict:      d.Dict,
		Global:    newGlobal,
		Fragments: slices.Clone(d.Fragments), // untouched ones stay shared
	}
	for i, share := range deltas {
		if share == nil {
			continue
		}
		f, err := d.Fragments[i].apply(share, newGlobal)
		if err != nil {
			return nil, nil, err
		}
		next.Fragments[i] = f
	}
	return next, deltas, nil
}

// Owner returns the fragment owning v: the one whose V_i holds it, or,
// for a vertex no fragment holds (new to the graph, or back after
// losing its last edge), the Hash strategy's pick. Any placement is
// correct, as partial evaluation does not depend on the partitioning.
func (d *Distributed) Owner(v rdf.TermID) int {
	for i, f := range d.Fragments {
		if f.IsInternal(v) {
			return i
		}
	}
	return partition.HashFragment(d.Dict, v, len(d.Fragments))
}

// ApplyDelta is Patch reporting the touched fragments by ID, in
// ascending order, instead of their shares. It ignores the assignment,
// which the benchmark driver still passes.
func (d *Distributed) ApplyDelta(newGlobal *store.Store, _ *partition.Assignment, inserted, deleted []rdf.Triple) (*Distributed, []int, error) {
	next, deltas, err := d.Patch(newGlobal, inserted, deleted)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]int, 0, len(deltas))
	for i, share := range deltas {
		if share != nil {
			ids = append(ids, i)
		}
	}
	return next, ids, nil
}

// Apply returns f after its share of a delta, leaving f untouched: the
// patch a worker runs on the generation it holds, and the coordinator
// (Patch) on its own. It follows Store.Apply's multigraph rules step for
// step — a delete drops every instance of a present triple and is a
// no-op for an absent or repeated one, then each insert adds one
// instance — so the edge count and the crossing list stay in step with
// the store. Its cost follows the delta: the new fragment shares with f
// every run, shard and page the delta does not write (Store.Apply,
// vertexSet.with), and the crossing list, when the delta writes it,
// copies its header and the runs the delta's crossing edges land in.
// A fragment that reads the coordinator's index has no index to splice:
// only Patch, which has the next one, applies its share.
//
// The delta may come off the wire, so it is checked against f first,
// and a delta that fails leaves no trace: Owned must strictly increase,
// every triple must have an owned endpoint, an owned vertex f already
// holds must be internal to f, and an endpoint internal to f must be
// owned.
func (f *Fragment) Apply(d *Delta) (*Fragment, error) { return f.apply(d, nil) }

// apply is Apply, given global, the global store after the delta.
func (f *Fragment) apply(d *Delta, global *store.Store) (*Fragment, error) {
	owns := func(v rdf.TermID) bool {
		_, ok := slices.BinarySearch(d.Owned, v)
		return ok
	}
	for i, v := range d.Owned {
		if i > 0 && v <= d.Owned[i-1] {
			return nil, fmt.Errorf("fragment %d: delta's owned vertices do not strictly increase at %d", f.ID, v)
		}
		if f.IsExtended(v) {
			return nil, fmt.Errorf("fragment %d: delta owns vertex %d, which the fragment holds as extended", f.ID, v)
		}
	}
	for _, batch := range [2][]rdf.Triple{d.Inserted, d.Deleted} {
		for _, t := range batch {
			if !owns(t.S) && !owns(t.O) {
				return nil, fmt.Errorf("fragment %d: delta edge %v has no owned endpoint", f.ID, t)
			}
			for _, v := range [2]rdf.TermID{t.S, t.O} {
				if f.IsInternal(v) && !owns(v) {
					return nil, fmt.Errorf("fragment %d: delta disowns vertex %d, which is internal to the fragment", f.ID, v)
				}
			}
		}
	}
	if !f.Store.OwnsIndex() && global == nil {
		return nil, fmt.Errorf("fragment %d reads the coordinator's index: Patch applies its share", f.ID)
	}

	next := &Fragment{ID: f.ID, crossCount: maps.Clone(f.crossCount), crossTotal: f.crossTotal}
	// V_i follows the owned vertices (one the delta does not name cannot
	// have appeared or vanished). Every edge of an owned vertex lives in
	// this fragment, so it is internal exactly when it keeps an edge, in
	// the fragment's own index or else in the global one.
	if f.Store.OwnsIndex() {
		next.Store = f.Store.Apply(d.Inserted, d.Deleted)
		next.internal = f.internal.with(d.Owned, next.Store.HasVertex)
	} else {
		next.internal = f.internal.with(d.Owned, global.HasVertex)
		next.Store = f.Store.Follow(global, next.internal.has, d.Inserted, d.Deleted)
	}
	// count moves the crossing counts by n instances of t entering
	// (n > 0) or leaving (n < 0), and reports whether t is a crossing edge.
	count := func(t rdf.Triple, n int) bool {
		if owns(t.S) && owns(t.O) {
			return false
		}
		next.countCrossing(t, owns(t.S), n)
		return true
	}
	// The crossing list loses every instance of a present deleted edge,
	// then gains one per inserted instance, in one write.
	var add, del []rdf.Triple
	dropped := make(map[rdf.Triple]bool, len(d.Deleted))
	for _, t := range d.Deleted {
		if n := f.Store.CountTriples(t.S, t.P, t.O); n > 0 && !dropped[t] {
			dropped[t] = true
			if count(t, -n) {
				del = append(del, t)
			}
		}
	}
	for _, t := range d.Inserted {
		if count(t, 1) {
			add = append(add, t)
		}
	}
	slices.SortFunc(add, rdf.Triple.Compare)
	slices.SortFunc(del, rdf.Triple.Compare)
	next.Crossing = f.Crossing.With(add, del, rdf.Triple.Compare)
	return next, nil
}
