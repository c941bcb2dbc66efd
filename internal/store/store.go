// Package store implements the centralized RDF store each site runs in the
// paper's architecture (the role played by gStore [25]): an in-memory,
// adjacency-indexed multigraph with signature-style candidate filtering and
// backtracking subgraph-homomorphism matching for BGP queries (Def. 3).
//
// The backtracking itself is Search: the binding slots and the one edge
// step of Def. 3, with the multi-edge injectivity rule written once. Two
// drivers decide which edge it takes next — the matcher here (MatchFunc:
// the plan's fixed edge order) and the local-partial-match enumerator of
// package partial (Definition 5's forced edges) — so a site's partial
// evaluation is its own matcher run a little further, as in [18].
package store

import (
	"maps"
	"slices"
	"sort"

	"gstored/internal/query"
	"gstored/internal/rdf"
)

// HalfEdge is one adjacency entry: the edge label P and the other endpoint V.
type HalfEdge struct {
	P, V rdf.TermID
}

// adjShards is how many ways an adjacency index is split. A delta of a
// few triples names a few vertices, so Apply copies that many of the 256
// shards and the new generation shares the rest with the old one.
const adjShards = 256

// adjacency maps a vertex to its half-edges, sharded by vertex ID. A nil
// shard is empty.
type adjacency [adjShards]map[rdf.TermID][]HalfEdge

func (a *adjacency) of(v rdf.TermID) []HalfEdge { return a[v%adjShards][v] }

// edit returns v's shard for writing. The first edit of a shard replaces
// it by a copy and marks it owned, so whoever shared it before never sees
// the write.
func (a *adjacency) edit(v rdf.TermID, owned *[adjShards]bool) map[rdf.TermID][]HalfEdge {
	i := v % adjShards
	if !owned[i] {
		owned[i] = true
		m := make(map[rdf.TermID][]HalfEdge, len(a[i]))
		maps.Copy(m, a[i])
		a[i] = m
	}
	return a[i]
}

// Store is an immutable, indexed RDF multigraph. Build one with New; the
// zero value is an empty graph.
type Store struct {
	Dict *rdf.Dictionary

	// out[s] and in[o] are adjacency lists sorted by (P, V); duplicates are
	// kept (RDF graphs are sets, but fragments replicate crossing edges and
	// generators may emit multisets — matching treats entries as instances).
	out adjacency
	in  adjacency

	// byPred[p] lists the triples carrying predicate p.
	byPred map[rdf.TermID][]rdf.Triple

	size     int
	vertices []rdf.TermID // all subjects and objects, sorted

	// stats is the per-predicate cardinality table built alongside the
	// index and maintained incrementally by Apply.
	stats *Stats
}

// New indexes the given triples. The dictionary is retained, not copied.
func New(dict *rdf.Dictionary, triples []rdf.Triple) *Store {
	st := &Store{
		Dict:   dict,
		byPred: make(map[rdf.TermID][]rdf.Triple),
	}
	vset := make(map[rdf.TermID]bool)
	var ownOut, ownIn [adjShards]bool
	for _, t := range triples {
		out, in := st.out.edit(t.S, &ownOut), st.in.edit(t.O, &ownIn)
		out[t.S] = append(out[t.S], HalfEdge{t.P, t.O})
		in[t.O] = append(in[t.O], HalfEdge{t.P, t.S})
		st.byPred[t.P] = append(st.byPred[t.P], t)
		vset[t.S] = true
		vset[t.O] = true
	}
	st.size = len(triples)
	for i := range adjShards {
		for _, adj := range st.out[i] {
			sortHalfEdges(adj)
		}
		for _, adj := range st.in[i] {
			sortHalfEdges(adj)
		}
	}
	// byPred lists are used to seed matching: identical triples would seed
	// identical bindings, so deduplicate (instance multiplicity stays
	// available through CountTriples).
	for p, ts := range st.byPred {
		sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
		dedup := ts[:0]
		for i, t := range ts {
			if i == 0 || t != ts[i-1] {
				dedup = append(dedup, t)
			}
		}
		st.byPred[p] = dedup
	}
	st.vertices = make([]rdf.TermID, 0, len(vset))
	for v := range vset {
		st.vertices = append(st.vertices, v)
	}
	sort.Slice(st.vertices, func(i, j int) bool { return st.vertices[i] < st.vertices[j] })
	st.stats = buildStats(st.byPred)
	return st
}

// FromGraph indexes all triples of g.
func FromGraph(g *rdf.Graph) *Store { return New(g.Dict, g.Triples) }

func sortHalfEdges(adj []HalfEdge) {
	sort.Slice(adj, func(i, j int) bool {
		if adj[i].P != adj[j].P {
			return adj[i].P < adj[j].P
		}
		return adj[i].V < adj[j].V
	})
}

// Len reports the number of indexed triples (edge instances).
func (st *Store) Len() int { return st.size }

// NumVertices reports the number of distinct vertices.
func (st *Store) NumVertices() int { return len(st.vertices) }

// Vertices returns all vertices in ascending ID order. Callers must not
// modify the returned slice.
func (st *Store) Vertices() []rdf.TermID { return st.vertices }

// HasVertex reports whether v occurs as a subject or object.
func (st *Store) HasVertex(v rdf.TermID) bool {
	i := sort.Search(len(st.vertices), func(i int) bool { return st.vertices[i] >= v })
	return i < len(st.vertices) && st.vertices[i] == v
}

// Out returns the outgoing adjacency of s (sorted by predicate then
// object). Callers must not modify it.
func (st *Store) Out(s rdf.TermID) []HalfEdge { return st.out.of(s) }

// In returns the incoming adjacency of o. Callers must not modify it.
func (st *Store) In(o rdf.TermID) []HalfEdge { return st.in.of(o) }

// OutWith returns the sub-slice of s's outgoing edges labeled p.
func (st *Store) OutWith(s, p rdf.TermID) []HalfEdge { return predRange(st.out.of(s), p) }

// InWith returns the sub-slice of o's incoming edges labeled p.
func (st *Store) InWith(o, p rdf.TermID) []HalfEdge { return predRange(st.in.of(o), p) }

func predRange(adj []HalfEdge, p rdf.TermID) []HalfEdge {
	lo := sort.Search(len(adj), func(i int) bool { return adj[i].P >= p })
	hi := sort.Search(len(adj), func(i int) bool { return adj[i].P > p })
	return adj[lo:hi]
}

// HasTriple reports whether at least one ⟨s,p,o⟩ edge instance exists.
func (st *Store) HasTriple(s, p, o rdf.TermID) bool {
	r := st.OutWith(s, p)
	i := sort.Search(len(r), func(i int) bool { return r[i].V >= o })
	return i < len(r) && r[i].V == o
}

// CountTriples returns the number of ⟨s,p,o⟩ edge instances (multigraph
// multiplicity).
func (st *Store) CountTriples(s, p, o rdf.TermID) int {
	r := st.OutWith(s, p)
	lo := sort.Search(len(r), func(i int) bool { return r[i].V >= o })
	hi := sort.Search(len(r), func(i int) bool { return r[i].V > o })
	return hi - lo
}

// PredCount returns how many triples carry predicate p.
func (st *Store) PredCount(p rdf.TermID) int { return len(st.byPred[p]) }

// TriplesWith returns the triples carrying predicate p. Callers must not
// modify the slice.
func (st *Store) TriplesWith(p rdf.TermID) []rdf.Triple { return st.byPred[p] }

// Predicates returns the distinct predicates, unsorted.
func (st *Store) Predicates() []rdf.TermID {
	out := make([]rdf.TermID, 0, len(st.byPred))
	for p := range st.byPred {
		out = append(out, p)
	}
	return out
}

// Triples returns a copy of all indexed triples in (S,P,O) order.
func (st *Store) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, st.size)
	for _, s := range st.vertices {
		for _, he := range st.out.of(s) {
			out = append(out, rdf.Triple{S: s, P: he.P, O: he.V})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// signatureOK is the gStore-style vertex signature test: u can match query
// vertex qv only if, for every query edge incident to qv with a constant
// label, u has at least one adjacent edge with that label in the right
// direction, and for variable-labeled incident edges u has at least one
// edge in that direction.
//
// Query edge via (-1 for none) is skipped: the caller reached u over a
// data edge of this store that matches via, so u passes via's test by
// construction. A self-loop via is matched only by a loop at u, which
// passes both of its directions; a caller whose u is merely one end of an
// edge with a self-loop's label passes -1.
func (st *Store) signatureOK(q *query.Graph, qv int, u rdf.TermID, via int) bool {
	for i, e := range q.Edges {
		if i == via {
			continue
		}
		if e.From == qv {
			if e.HasVarLabel() {
				if len(st.out.of(u)) == 0 {
					return false
				}
			} else if len(st.OutWith(u, e.Label)) == 0 {
				return false
			}
		}
		if e.To == qv {
			if e.HasVarLabel() {
				if len(st.in.of(u)) == 0 {
					return false
				}
			} else if len(st.InWith(u, e.Label)) == 0 {
				return false
			}
		}
	}
	return true
}

// constantEnd reports the constant vertex c that query edge e joins qv
// to, and whether e runs from qv to c rather than from c to qv. ok is
// false when e does not join qv to a constant.
func constantEnd(q *query.Graph, qv int, e query.Edge) (c rdf.TermID, outgoing, ok bool) {
	switch {
	case e.From == qv && !q.Vertices[e.To].IsVar():
		return q.Vertices[e.To].Const, true, true
	case e.To == qv && !q.Vertices[e.From].IsVar():
		return q.Vertices[e.From].Const, false, true
	}
	return rdf.NoTerm, false, false
}

// anchor returns the adjacency of the constant vertex query edge e joins
// qv to, narrowed to e's label: its far ends are the only vertices e
// admits at qv. ok is false when e does not join qv to a constant.
func (st *Store) anchor(q *query.Graph, qv int, e query.Edge) (adj []HalfEdge, ok bool) {
	c, outgoing, ok := constantEnd(q, qv, e)
	if !ok {
		return nil, false
	}
	return st.Adjacency(c, e, !outgoing), true
}

// Adjacency returns x's half-edges that can carry query edge e at x: its
// out-edges when out, else its in-edges, narrowed to e's label unless
// that is a variable.
func (st *Store) Adjacency(x rdf.TermID, e query.Edge, out bool) []HalfEdge {
	adj := st.in.of(x)
	if out {
		adj = st.out.of(x)
	}
	if !e.HasVarLabel() {
		adj = predRange(adj, e.Label)
	}
	return adj
}

// hasEdge reports whether some s→o edge instance could carry query edge
// e: one labeled e.Label, or any at all when e's label is a variable.
func (st *Store) hasEdge(e query.Edge, s, o rdf.TermID) bool {
	if !e.HasVarLabel() {
		return st.HasTriple(s, e.Label, o)
	}
	adj, far := st.out.of(s), o
	if in := st.in.of(o); len(in) < len(adj) {
		adj, far = in, s
	}
	for _, he := range adj {
		if he.V == far {
			return true
		}
	}
	return false
}

// constantsOK is the neighbour half of gStore's signature: every query
// edge between qv and a constant vertex must exist at u.
func (st *Store) constantsOK(q *query.Graph, qv int, u rdf.TermID) bool {
	for _, e := range q.Edges {
		c, outgoing, ok := constantEnd(q, qv, e)
		if !ok {
			continue
		}
		s, o := c, u
		if outgoing {
			s, o = u, c
		}
		if !st.hasEdge(e, s, o) {
			return false
		}
	}
	return true
}

// Candidates computes C(Q, v): the vertices that could match query vertex
// qv, per the signature test and the edges qv shares with constant
// vertices (Section VI uses exactly this set). The result is sorted. For
// constant vertices it is the vertex itself when present.
//
// Both tests read u's own adjacency, so the set is exact only for a vertex
// whose every edge the store holds: any vertex of the global store, an
// internal vertex of a fragment's store (Definition 1). An extended vertex
// carries only its crossing edges there and may be dropped wrongly, which
// is why package candidates keeps the internal vertices alone.
func (st *Store) Candidates(q *query.Graph, qv int) []rdf.TermID {
	v := q.Vertices[qv]
	if !v.IsVar() {
		if st.HasVertex(v.Const) {
			return []rdf.TermID{v.Const}
		}
		return nil
	}
	// Seed from the smallest domain an incident edge offers: a constant
	// neighbour's adjacency, a constant label's triple list, else every
	// vertex. Pick the edge first, then build its seed set once. Every
	// seed is an end of an edge matching the edge it came from, so the
	// signature test skips that edge (via) — unless it is a self-loop,
	// whose seeds are either end of a labeled edge, not a loop.
	var anchor []HalfEdge
	label, via, n := -1, -1, len(st.vertices)
	for i, e := range q.Edges {
		if e.From != qv && e.To != qv {
			continue
		}
		if adj, ok := st.anchor(q, qv, e); ok {
			if len(adj) == 0 {
				return nil
			}
			if len(adj) <= n {
				anchor, label, via, n = adj, -1, i, len(adj)
			}
		} else if c := st.PredCount(e.Label); !e.HasVarLabel() && c < n {
			anchor, label, via, n = nil, i, i, c
			if e.From == e.To {
				via = -1
			}
		}
	}
	seed := make([]rdf.TermID, 0, n)
	switch {
	case anchor != nil:
		for _, he := range anchor {
			seed = append(seed, he.V)
		}
	case label >= 0:
		e := q.Edges[label]
		for _, t := range st.byPred[e.Label] {
			if e.From == qv {
				seed = append(seed, t.S)
			}
			if e.To == qv {
				seed = append(seed, t.O)
			}
		}
	default:
		seed = append(seed, st.vertices...)
	}
	slices.Sort(seed)
	seed = slices.Compact(seed)
	out := seed[:0]
	for _, u := range seed {
		if st.signatureOK(q, qv, u, via) && st.constantsOK(q, qv, u) {
			out = append(out, u)
		}
	}
	return out
}
