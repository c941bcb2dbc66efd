package store

import (
	"maps"
	"sort"

	"gstored/internal/rdf"
)

// Apply returns a new immutable Store reflecting st with every instance
// of each triple in deleted removed and each triple in inserted added as
// one instance. st itself is never modified — executions holding it keep
// a consistent snapshot — and the cost is proportional to the delta: the
// adjacency shards its endpoints fall in are copied (the rest are shared
// with st) and only the adjacency actually touched is spliced. A delta
// that adds or removes a vertex also copies the sorted vertex list.
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

	// Cardinality table: recompute only the predicates the delta touched,
	// mirroring the copy-on-write adjacency discipline above.
	touchedPreds := make(map[rdf.TermID]bool, len(delSet)+len(inserted))
	for t := range delSet {
		touchedPreds[t.P] = true
	}
	for _, t := range inserted {
		touchedPreds[t.P] = true
	}
	next.stats = st.stats.rebuild(touchedPreds, next.byPred)

	// Vertex set: recompute only when the delta could have changed it —
	// an inserted endpoint the old graph did not know, or a deleted
	// endpoint left with no adjacency at all.
	added := make(map[rdf.TermID]bool)
	removed := make(map[rdf.TermID]bool)
	for _, t := range inserted {
		for _, v := range [2]rdf.TermID{t.S, t.O} {
			if !st.HasVertex(v) {
				added[v] = true
			}
		}
	}
	for t := range delSet {
		for _, v := range [2]rdf.TermID{t.S, t.O} {
			// st.HasVertex guards the arithmetic below: only a vertex the
			// old graph actually had can be "removed" from it.
			if !added[v] && st.HasVertex(v) && len(next.out.of(v)) == 0 && len(next.in.of(v)) == 0 {
				removed[v] = true
			}
		}
	}
	if len(added) == 0 && len(removed) == 0 {
		next.vertices = st.vertices
		return next
	}
	vs := make([]rdf.TermID, 0, len(st.vertices)+len(added)-len(removed))
	for _, v := range st.vertices {
		if !removed[v] {
			vs = append(vs, v)
		}
	}
	for v := range added {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	next.vertices = vs
	return next
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
