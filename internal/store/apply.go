package store

import (
	"maps"
	"slices"
	"sort"

	"gstored/internal/rdf"
)

// Apply returns a new immutable Store reflecting st with every instance
// of each triple in deleted removed and each triple in inserted added as
// one instance. st itself is never modified — executions holding it keep
// a consistent snapshot — and the index work is proportional to the
// delta: the adjacency shards its endpoints fall in are copied (the rest
// are shared with st), only the adjacency actually touched is spliced,
// and the cardinality table moves by the delta's own adjacency (Stats).
// Beyond that, a delta that adds or removes a vertex splices it into one
// copy of the sorted vertex list, and the byPred list of each predicate
// the delta names is copied.
//
// Callers are expected to pass a set-semantics delta: inserted triples
// not yet present and deleted triples that are (DB.Update normalizes its
// request this way). Apply is nonetheless safe under violations —
// inserting an existing triple adds a duplicate instance (the multigraph
// already models those), deleting an absent one is a no-op — so a
// mis-normalized delta degrades to multiset behavior rather than
// corrupting the index.
func (st *Store) Apply(inserted, deleted []rdf.Triple) *Store {
	next := &Store{
		Dict:   st.Dict,
		out:    st.out,
		in:     st.in,
		byPred: make(map[rdf.TermID][]rdf.Triple, len(st.byPred)),
		size:   st.size,
	}
	maps.Copy(next.byPred, st.byPred)
	// Shards and predicate lists still alias st's until edit, the drop*
	// and the insert* helpers copy the ones the delta writes.
	var ownOut, ownIn [adjShards]bool

	// Deletions first: remove every instance from the touched adjacency
	// slices (copy-on-write) and every entry from the deduplicated byPred
	// lists.
	delSet := make(map[rdf.Triple]bool, len(deleted))
	for _, t := range deleted {
		if delSet[t] {
			continue // duplicate request entry; instances already counted
		}
		n := st.CountTriples(t.S, t.P, t.O)
		if n == 0 {
			continue // absent triple: a no-op, and it must not enter delSet
			// — its endpoints may not be graph vertices at all, and the
			// orphan check below assumes delSet endpoints were.
		}
		delSet[t] = true
		next.size -= n
		out, in := next.out.edit(t.S, &ownOut), next.in.edit(t.O, &ownIn)
		out[t.S] = dropHalfEdges(out[t.S], HalfEdge{t.P, t.O})
		in[t.O] = dropHalfEdges(in[t.O], HalfEdge{t.P, t.S})
		next.byPred[t.P] = dropTriple(next.byPred[t.P], t)
		// Emptied entries are removed outright so derived views (e.g.
		// Predicates) match a from-scratch build of the same graph.
		if len(out[t.S]) == 0 {
			delete(out, t.S)
		}
		if len(in[t.O]) == 0 {
			delete(in, t.O)
		}
		if len(next.byPred[t.P]) == 0 {
			delete(next.byPred, t.P)
		}
	}

	// Insertions: splice each instance into the sorted adjacency and, if
	// new, into the deduplicated byPred list.
	for _, t := range inserted {
		next.size++
		out, in := next.out.edit(t.S, &ownOut), next.in.edit(t.O, &ownIn)
		out[t.S] = insertHalfEdge(out[t.S], st.out.of(t.S), HalfEdge{t.P, t.O})
		in[t.O] = insertHalfEdge(in[t.O], st.in.of(t.O), HalfEdge{t.P, t.S})
		next.byPred[t.P] = insertTriple(next.byPred[t.P], st.byPred[t.P], t)
	}

	next.stats = st.stats.apply(st, next, deleted, inserted)

	// Vertex set: it changes only by an inserted endpoint the old graph
	// did not know, or a deleted endpoint left with no adjacency at all
	// (st.HasVertex: only a vertex st had can be removed from it).
	var added, removed []rdf.TermID
	for _, t := range inserted {
		for _, v := range [2]rdf.TermID{t.S, t.O} {
			if !st.HasVertex(v) {
				added = append(added, v)
			}
		}
	}
	for t := range delSet {
		for _, v := range [2]rdf.TermID{t.S, t.O} {
			if st.HasVertex(v) && len(next.out.of(v)) == 0 && len(next.in.of(v)) == 0 {
				removed = append(removed, v)
			}
		}
	}
	next.vertices = st.vertices
	if len(added) > 0 || len(removed) > 0 {
		slices.Sort(added)
		slices.Sort(removed)
		next.vertices = splice(st.vertices, slices.Compact(added), slices.Compact(removed))
	}
	return next
}

// splice returns sorted vs with the sorted IDs of add put in and those of
// del taken out, in one copy: add must hold no member of vs and del only
// members. Each edit costs a binary search, not a comparison per vertex.
func splice(vs, add, del []rdf.TermID) []rdf.TermID {
	out := make([]rdf.TermID, 0, len(vs)+len(add)-len(del))
	for len(add) > 0 || len(del) > 0 {
		if len(del) == 0 || (len(add) > 0 && add[0] < del[0]) {
			i, _ := slices.BinarySearch(vs, add[0])
			out = append(append(out, vs[:i]...), add[0])
			vs, add = vs[i:], add[1:]
		} else {
			i, _ := slices.BinarySearch(vs, del[0])
			out = append(out, vs[:i]...)
			vs, del = vs[i+1:], del[1:]
		}
	}
	return append(out, vs...)
}

// dropHalfEdges returns adj without any instance equal to he, copying
// only when something is actually removed.
func dropHalfEdges(adj []HalfEdge, he HalfEdge) []HalfEdge {
	lo := sort.Search(len(adj), func(i int) bool {
		return adj[i].P > he.P || (adj[i].P == he.P && adj[i].V >= he.V)
	})
	hi := lo
	for hi < len(adj) && adj[hi] == he {
		hi++
	}
	if lo == hi {
		return adj
	}
	out := make([]HalfEdge, 0, len(adj)-(hi-lo))
	out = append(out, adj[:lo]...)
	return append(out, adj[hi:]...)
}

// insertHalfEdge splices he into sorted adj. When adj still aliases the
// original store's slice (no deletion copied it yet), a fresh copy is
// made so the shared snapshot is never written.
func insertHalfEdge(adj, original []HalfEdge, he HalfEdge) []HalfEdge {
	i := sort.Search(len(adj), func(i int) bool {
		return adj[i].P > he.P || (adj[i].P == he.P && adj[i].V >= he.V)
	})
	out := adj
	if len(adj) == len(original) && len(adj) > 0 && &adj[0] == &original[0] {
		out = make([]HalfEdge, len(adj), len(adj)+1)
		copy(out, adj)
	}
	out = append(out, HalfEdge{})
	copy(out[i+1:], out[i:])
	out[i] = he
	return out
}

// dropTriple removes t from the sorted, deduplicated list ts.
func dropTriple(ts []rdf.Triple, t rdf.Triple) []rdf.Triple {
	i := sort.Search(len(ts), func(i int) bool { return !ts[i].Less(t) })
	if i >= len(ts) || ts[i] != t {
		return ts
	}
	out := make([]rdf.Triple, 0, len(ts)-1)
	out = append(out, ts[:i]...)
	return append(out, ts[i+1:]...)
}

// insertTriple splices t into the sorted, deduplicated list ts (a no-op
// when t is already listed), copying when ts still aliases the original.
func insertTriple(ts, original []rdf.Triple, t rdf.Triple) []rdf.Triple {
	i := sort.Search(len(ts), func(i int) bool { return !ts[i].Less(t) })
	if i < len(ts) && ts[i] == t {
		return ts // byPred is deduplicated; a second instance adds nothing
	}
	out := ts
	if len(ts) == len(original) && len(ts) > 0 && &ts[0] == &original[0] {
		out = make([]rdf.Triple, len(ts), len(ts)+1)
		copy(out, ts)
	}
	out = append(out, rdf.Triple{})
	copy(out[i+1:], out[i:])
	out[i] = t
	return out
}
