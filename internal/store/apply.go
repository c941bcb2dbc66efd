package store

import (
	"cmp"
	"maps"
	"slices"

	"gstored/internal/rdf"
	"gstored/internal/runs"
)

// Apply returns a new immutable Store reflecting st with every instance
// of each triple in deleted removed and each triple in inserted added as
// one instance. st itself is never modified — executions holding it keep
// a consistent snapshot — and the index work is proportional to the
// delta: each adjacency shard its endpoints fall in is rebuilt once, with
// the touched vertices' lists spliced between copies of the untouched
// runs (the other shards are shared with st); each byPred list the
// delta writes, and the vertex list when a vertex comes or goes, copies
// its header and the runs the delta's elements land in (package runs),
// sharing the other runs with st; and the cardinality table moves by the
// delta's own adjacency (Stats).
//
// Callers are expected to pass a set-semantics delta: inserted triples
// not yet present and deleted triples that are (DB.Update normalizes its
// request this way). Apply is nonetheless safe under violations —
// inserting an existing triple adds a duplicate instance (the multigraph
// already models those), deleting an absent one is a no-op — so a
// mis-normalized delta degrades to multiset behavior rather than
// corrupting the index.
func (st *Store) Apply(inserted, deleted []rdf.Triple) *Store {
	return st.Follow(nil, nil, inserted, deleted)
}

// Follow is Apply for a store built by Within, splicing no index: the
// next store reads the index of global, the store st's index came from
// after the delta, through home, the home set after it. A nil global is
// Apply, for a store that owns its index (OwnsIndex).
func (st *Store) Follow(global *Store, home func(rdf.TermID) bool, inserted, deleted []rdf.Triple) *Store {
	next := &Store{
		Dict:   st.Dict,
		byPred: make(map[rdf.TermID]runs.List[rdf.Triple], len(st.byPred)),
		size:   st.size,
		home:   home,
	}
	maps.Copy(next.byPred, st.byPred)
	out, in := edits{}, edits{}
	// Each written predicate's triples to add to and drop from its list.
	adds, dels := make(map[rdf.TermID][]rdf.Triple), make(map[rdf.TermID][]rdf.Triple)

	// Deletions first: remove every instance from the touched adjacency
	// lists and every entry from the deduplicated byPred lists.
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
		if global == nil {
			out.drop(st, true, t.S, HalfEdge{t.P, t.O})
			in.drop(st, false, t.O, HalfEdge{t.P, t.S})
		}
		dels[t.P] = append(dels[t.P], t)
	}

	// Insertions: splice each instance into the sorted adjacency and, if
	// new, into the deduplicated byPred list.
	for _, t := range inserted {
		next.size++
		if global == nil {
			out.insert(st, true, t.S, HalfEdge{t.P, t.O})
			in.insert(st, false, t.O, HalfEdge{t.P, t.S})
		}
		adds[t.P] = append(adds[t.P], t)
	}
	if global == nil {
		next.out, next.in = st.out.apply(out), st.in.apply(in)
	} else {
		next.out, next.in = global.out, global.in
	}
	for p := range adds {
		if _, ok := dels[p]; !ok {
			dels[p] = nil // every written predicate is a key of dels
		}
	}
	for p, del := range dels {
		ts, add := st.byPred[p], adds[p]
		slices.SortFunc(add, rdf.Triple.Compare)
		slices.SortFunc(del, rdf.Triple.Compare)
		// byPred is deduplicated: a triple enters once, and only if it is
		// not listed or leaves first.
		add = slices.DeleteFunc(slices.Compact(add), func(t rdf.Triple) bool {
			_, listed := ts.Search(t, rdf.Triple.Compare)
			return listed && !delSet[t]
		})
		// Emptied entries are removed outright so derived views (e.g.
		// Stats) match a from-scratch build of the same graph.
		if ts = ts.With(add, del, rdf.Triple.Compare); ts.Len() > 0 {
			next.byPred[p] = ts
		} else {
			delete(next.byPred, p)
		}
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
			if st.HasVertex(v) && !next.HasVertex(v) {
				removed = append(removed, v)
			}
		}
	}
	slices.Sort(added)
	slices.Sort(removed)
	next.vertices = st.vertices.With(slices.Compact(added), slices.Compact(removed), cmp.Compare[rdf.TermID])
	return next
}

// edits holds the new half-edge lists of the vertices a delta touches in
// one direction of the index; each starts as a private copy of the old
// generation's list, so it is written in place.
type edits map[rdf.TermID][]HalfEdge

func (e edits) list(old *Store, out bool, v rdf.TermID) []HalfEdge {
	l, ok := e[v]
	if !ok {
		adj, _ := old.run(v, out) // old owns its index: nothing to skip
		l = slices.Clone(adj)
	}
	return l
}

// drop removes every instance of he from v's list.
func (e edits) drop(old *Store, out bool, v rdf.TermID, he HalfEdge) {
	e[v] = slices.DeleteFunc(e.list(old, out, v), func(x HalfEdge) bool { return x == he })
}

// insert splices one instance of he into v's sorted list.
func (e edits) insert(old *Store, out bool, v rdf.TermID, he HalfEdge) {
	l := e.list(old, out, v)
	i, _ := slices.BinarySearchFunc(l, he, compareHalfEdges)
	e[v] = slices.Insert(l, i, he)
}

// apply returns a with each vertex of e holding its list there, or gone
// when that is empty: every shard an edited vertex falls in is rebuilt
// once, and the others are shared with a.
func (a *adjacency) apply(e edits) *adjacency {
	next := new(adjacency)
	if a != nil {
		*next = *a
	}
	touched := make(map[rdf.TermID][]rdf.TermID)
	for v := range e {
		touched[v%adjShards] = append(touched[v%adjShards], v)
	}
	for i, vs := range touched {
		slices.Sort(vs)
		next[i] = next[i].splice(vs, e)
	}
	return next
}

// splice returns a new shard holding sh's vertices with each of vs (sorted,
// all of sh's shard) given its list in e: the runs of untouched vertices
// between them are copied as they are, and a vertex whose list is empty
// leaves the shard. When no vertex comes or goes, the new shard shares
// sh's slot table. An emptied shard is nil.
func (sh *shard) splice(vs []rdf.TermID, e edits) *shard {
	old := shard{rows: []row{{}}} // no vertex, and the sentinel
	if sh != nil {
		old = *sh
	}
	keys := old.rows[:len(old.rows)-1]
	edges := len(old.edges)
	for _, v := range vs {
		edges += len(e[v])
	}
	out := &shard{rows: make([]row, 0, len(old.rows)+len(vs)), edges: make([]HalfEdge, 0, edges)}
	i, same := 0, true
	for _, v := range vs {
		j, found := slices.BinarySearchFunc(keys[i:], v, func(r row, v rdf.TermID) int { return cmp.Compare(r.key, v) })
		j += i
		out.appendRun(&old, i, j)
		if found {
			j++
		}
		if l := e[v]; len(l) > 0 {
			out.rows = append(out.rows, row{v, int32(len(out.edges))})
			out.edges = append(out.edges, l...)
		}
		same = same && found == (len(e[v]) > 0)
		i = j
	}
	out.appendRun(&old, i, len(keys))
	if len(out.rows) == 0 {
		return nil
	}
	out.rows = append(out.rows, row{off: int32(len(out.edges))})
	if same {
		out.slots, out.shift = old.slots, old.shift
	} else {
		out.index()
	}
	return out
}

// appendRun appends sh's rows i to j-1 with their half-edges.
func (out *shard) appendRun(sh *shard, i, j int) {
	if i == j {
		return
	}
	base := int32(len(out.edges)) - sh.rows[i].off
	for _, r := range sh.rows[i:j] {
		out.rows = append(out.rows, row{r.key, r.off + base})
	}
	out.edges = append(out.edges, sh.edges[sh.rows[i].off:sh.rows[j].off]...)
}
