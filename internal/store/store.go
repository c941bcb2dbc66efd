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
	"cmp"
	"math/bits"
	"slices"

	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/runs"
)

// HalfEdge is one adjacency entry: the edge label P and the other endpoint V.
type HalfEdge struct {
	P, V rdf.TermID
}

// adjShards is how many ways an adjacency index is split. A delta of a
// few triples names a few vertices, so Apply rebuilds that many of the
// 256 shards and the new generation shares the rest with the old one.
const adjShards = 256

// adjacency maps a vertex to its half-edges, sharded by vertex ID modulo
// adjShards. A nil shard is empty. Shards are immutable once built: Apply
// replaces a shard it writes and shares the others by pointer.
type adjacency [adjShards]*shard

// shard is one compressed-sparse-row slice of an adjacency index. rows
// lists its vertices in ascending order, each with the offset of its
// half-edges in edges, and ends in a sentinel row whose offset is
// len(edges): vertex rows[j].key's half-edges are
// edges[rows[j].off:rows[j+1].off], sorted by (P, V), so a vertex's key
// and both its offsets mostly share a cache line. slots finds j: an
// open-addressing table whose length is a power of two above 1.5 × the
// vertex count, where a vertex hashes to the slot its top bits name
// (shift) and probes forward to the slot holding j+1; a 0 slot ends the
// probe. No element holds a pointer, so the garbage collector marks the
// three arrays and scans none of them, and nothing is sized by a vertex
// ID's magnitude.
type shard struct {
	rows  []row
	edges []HalfEdge
	slots []int32
	shift uint8
}

// row is one vertex of a shard and where its half-edges start.
type row struct {
	key rdf.TermID
	off int32
}

// fibonacci is 2⁶⁴ divided by the golden ratio: multiplying by it spreads
// arithmetic runs of vertex IDs over a table's slots.
const fibonacci = 0x9E3779B97F4A7C15

func (sh *shard) slot(v rdf.TermID) int { return int(uint64(v) * fibonacci >> sh.shift) }

// find returns v's row, or -1.
func (sh *shard) find(v rdf.TermID) int {
	mask := len(sh.slots) - 1
	for h := sh.slot(v); ; h = (h + 1) & mask {
		j := sh.slots[h] - 1
		if j < 0 || sh.rows[j].key == v {
			return int(j)
		}
	}
}

// index builds the slot table over the rows.
func (sh *shard) index() {
	n := len(sh.rows) - 1
	width := bits.Len(uint(n + n/2))
	sh.slots, sh.shift = make([]int32, 1<<width), uint8(64-width)
	mask := len(sh.slots) - 1
	for j, r := range sh.rows[:n] {
		h := sh.slot(r.key)
		for sh.slots[h] != 0 {
			h = (h + 1) & mask
		}
		sh.slots[h] = int32(j + 1)
	}
}

// of returns v's half-edges, capped so that an append copies.
func (a *adjacency) of(v rdf.TermID) []HalfEdge {
	if a == nil || a[v%adjShards] == nil {
		return nil
	}
	sh := a[v%adjShards]
	j := sh.find(v)
	if j < 0 {
		return nil
	}
	lo, hi := sh.rows[j].off, sh.rows[j+1].off
	return sh.edges[lo:hi:hi]
}

// buildAdjacency indexes every triple under its subject when out, else
// under its object: bucket by shard, sort each bucket by (vertex, P, V)
// once, and cut it into a shard.
func buildAdjacency(triples []rdf.Triple, out bool) *adjacency {
	type entry struct {
		k  rdf.TermID
		he HalfEdge
	}
	entryOf := func(t rdf.Triple) entry {
		if out {
			return entry{t.S, HalfEdge{t.P, t.O}}
		}
		return entry{t.O, HalfEdge{t.P, t.S}}
	}
	var start [adjShards + 1]int
	for _, t := range triples {
		start[entryOf(t).k%adjShards+1]++
	}
	for i := range adjShards {
		start[i+1] += start[i]
	}
	next := start
	buf := make([]entry, len(triples))
	for _, t := range triples {
		e := entryOf(t)
		buf[next[e.k%adjShards]] = e
		next[e.k%adjShards]++
	}
	a := new(adjacency)
	for i := range adjShards {
		run := buf[start[i]:start[i+1]]
		if len(run) == 0 {
			continue
		}
		slices.SortFunc(run, func(x, y entry) int {
			if x.k != y.k {
				return cmp.Compare(x.k, y.k)
			}
			return compareHalfEdges(x.he, y.he)
		})
		keys := 1
		for j := 1; j < len(run); j++ {
			if run[j].k != run[j-1].k {
				keys++
			}
		}
		sh := &shard{rows: make([]row, 0, keys+1), edges: make([]HalfEdge, len(run))}
		for j, e := range run {
			if j == 0 || e.k != run[j-1].k {
				sh.rows = append(sh.rows, row{e.k, int32(j)})
			}
			sh.edges[j] = e.he
		}
		sh.rows = append(sh.rows, row{off: int32(len(run))})
		sh.index()
		a[i] = sh
	}
	return a
}

// Store is an immutable, indexed RDF multigraph. Build one with New, or
// with Within to read another store's index through a home set (run);
// the zero value is an empty graph.
type Store struct {
	Dict *rdf.Dictionary

	// out[s] and in[o] are adjacency lists sorted by (P, V); duplicates are
	// kept (RDF graphs are sets, but fragments replicate crossing edges and
	// generators may emit multisets — matching treats entries as instances).
	// home is nil unless they are another store's.
	out, in *adjacency
	home    func(rdf.TermID) bool

	// byPred[p] lists the distinct triples carrying predicate p in
	// (S,P,O) order, and vertices every subject and object in ID order:
	// runs that Apply writes one at a time.
	byPred   map[rdf.TermID]runs.List[rdf.Triple]
	vertices runs.List[rdf.TermID]

	size int

	// stats is the per-predicate cardinality table built alongside the
	// index and maintained incrementally by Apply.
	stats *Stats
}

// New indexes the given triples. The dictionary is retained, not copied.
func New(dict *rdf.Dictionary, triples []rdf.Triple) *Store {
	st := scan(dict, triples)
	st.out, st.in = buildAdjacency(triples, true), buildAdjacency(triples, false)
	return st
}

// Within is the store of triples, g's edges with an end in home: it builds
// their byPred and vertex runs and Stats, and reads g's index through home.
func (g *Store) Within(triples []rdf.Triple, home func(rdf.TermID) bool) *Store {
	st := scan(g.Dict, triples)
	st.out, st.in, st.home = g.out, g.in, home
	return st
}

// OwnsIndex reports whether st reads its own adjacency index.
func (st *Store) OwnsIndex() bool { return st.home == nil }

// scan builds a store's byPred and vertex runs and Stats over triples,
// which it does not write. One stable counting pass buckets the triples
// by predicate; a bucket is sorted only when it is out of (S,P,O) order
// (triples in that order, as fragment.Build passes, leave none so), and
// deduplicated in place: byPred lists seed matching, where identical
// triples would seed identical bindings (instance multiplicity stays
// available through CountTriples).
func scan(dict *rdf.Dictionary, triples []rdf.Triple) *Store {
	var top rdf.TermID
	for _, t := range triples {
		top = max(top, t.S, t.P, t.O)
	}
	preds := newIDSet(top, len(triples))
	for _, t := range triples {
		preds.add(t.P)
	}
	ps := preds.sorted()
	start := make([]int, len(ps)+1)
	for _, t := range triples {
		start[preds.index(t.P)+1]++
	}
	for k := range ps {
		start[k+1] += start[k]
	}
	next := slices.Clone(start)
	byPred := make([]rdf.Triple, len(triples))
	for _, t := range triples {
		k := preds.index(t.P)
		byPred[next[k]] = t
		next[k]++
	}
	st := &Store{
		Dict:   dict,
		byPred: make(map[rdf.TermID]runs.List[rdf.Triple], len(ps)),
		size:   len(triples),
		stats:  &Stats{preds: make(map[rdf.TermID]PredStat, len(ps))},
	}
	vertices, objects := newIDSet(top, len(triples)), newIDSet(top, len(triples))
	for k, p := range ps {
		ts := byPred[start[k]:start[k+1]]
		if !slices.IsSortedFunc(ts, rdf.Triple.Compare) {
			slices.SortFunc(ts, rdf.Triple.Compare)
		}
		ts = slices.Compact(ts)
		stat := PredStat{Count: len(ts), Objects: objects.distinctObjects(ts)}
		for i, t := range ts {
			if i == 0 || t.S != ts[i-1].S {
				stat.Subjects++
			}
			vertices.add(t.S)
			vertices.add(t.O)
		}
		st.byPred[p] = runs.Of(ts)
		st.stats.preds[p] = stat
		st.stats.triples += stat.Count
	}
	st.vertices = runs.Of(vertices.sorted())
	return st
}

// idSet is a set of term IDs. It is a bitset over [0, top] when that
// costs at most a word per triple of the list it is built from, and
// otherwise the added IDs, which sorted sorts and compacts, so that a
// far ID (one off the wire) never sizes an allocation.
type idSet struct {
	bits []uint64
	rank []int32 // rank[w] counts the members below word w once sorted ran
	ids  []rdf.TermID
}

func newIDSet(top rdf.TermID, triples int) *idSet {
	if int(top>>6) < triples {
		return &idSet{bits: make([]uint64, top>>6+1)}
	}
	return &idSet{}
}

func (s *idSet) add(v rdf.TermID) {
	if s.bits == nil {
		s.ids = append(s.ids, v)
	} else {
		s.bits[v>>6] |= 1 << (v & 63)
	}
}

// sorted returns the members in ascending order.
func (s *idSet) sorted() []rdf.TermID {
	if s.bits == nil {
		slices.Sort(s.ids)
		s.ids = slices.Compact(s.ids)
		return s.ids
	}
	s.rank = make([]int32, len(s.bits))
	n := 0
	for w, x := range s.bits {
		s.rank[w] = int32(n)
		n += bits.OnesCount64(x)
	}
	s.ids = make([]rdf.TermID, 0, n)
	for w, x := range s.bits {
		for ; x != 0; x &= x - 1 {
			s.ids = append(s.ids, rdf.TermID(w<<6|bits.TrailingZeros64(x)))
		}
	}
	return s.ids
}

// index returns member v's position in sorted's order, once sorted ran.
func (s *idSet) index(v rdf.TermID) int {
	if s.bits == nil {
		i, _ := slices.BinarySearch(s.ids, v)
		return i
	}
	return int(s.rank[v>>6]) + bits.OnesCount64(s.bits[v>>6]&(1<<(v&63)-1))
}

// distinctObjects counts the distinct objects of ts in the empty set s,
// which it leaves empty.
func (s *idSet) distinctObjects(ts []rdf.Triple) (n int) {
	if s.bits == nil {
		for _, t := range ts {
			s.add(t.O)
		}
		n = len(s.sorted())
		s.ids = s.ids[:0]
		return n
	}
	for _, t := range ts {
		if w, m := &s.bits[t.O>>6], uint64(1)<<(t.O&63); *w&m == 0 {
			*w |= m
			n++
		}
	}
	for _, t := range ts {
		s.bits[t.O>>6] = 0
	}
	return n
}

// FromGraph indexes all triples of g.
func FromGraph(g *rdf.Graph) *Store { return New(g.Dict, g.Triples) }

// compareHalfEdges orders half-edges by (P, V), an adjacency list's order.
func compareHalfEdges(x, y HalfEdge) int {
	if x.P != y.P {
		return cmp.Compare(x.P, y.P)
	}
	return cmp.Compare(x.V, y.V)
}

// Len reports the number of indexed triples (edge instances).
func (st *Store) Len() int { return st.size }

// NumVertices reports the number of distinct vertices.
func (st *Store) NumVertices() int { return st.vertices.Len() }

// Vertices returns all vertices in ascending ID order, in a new slice.
func (st *Store) Vertices() []rdf.TermID { return st.vertices.Flat() }

// run is the store's one adjacency read: v's out- or in-edges, sorted by
// (P, V). A store's edges are its index's with an end in its home set
// (Definition 1's V_i), so outside the set skip is true, and the consumer
// skips each half-edge whose far end is outside it too.
func (st *Store) run(v rdf.TermID, out bool) (adj []HalfEdge, skip bool) {
	a := st.in
	if out {
		a = st.out
	}
	return a.of(v), st.home != nil && !st.home(v)
}

// holds reports whether a run read with skip holds a half-edge of st.
func (st *Store) holds(adj []HalfEdge, skip bool) bool {
	return !skip && len(adj) > 0 ||
		skip && slices.ContainsFunc(adj, func(he HalfEdge) bool { return st.home(he.V) })
}

// HasVertex reports whether v occurs as a subject or object: whether it
// has a half-edge in either direction.
func (st *Store) HasVertex(v rdf.TermID) bool {
	return st.Degree(v, true, rdf.NoTerm) > 0 || st.Degree(v, false, rdf.NoTerm) > 0
}

// Adjacency returns v's out-edges when out, else its in-edges, sorted by
// (P, V) and narrowed to label p unless p is rdf.NoTerm. Callers must not
// modify it. Outside the home set it is a copy, which Degree avoids.
func (st *Store) Adjacency(v rdf.TermID, out bool, p rdf.TermID) []HalfEdge {
	adj, skip := st.run(v, out)
	if adj = labelRun(adj, p); skip {
		adj = slices.DeleteFunc(slices.Clone(adj), func(he HalfEdge) bool { return !st.home(he.V) })
	}
	return adj
}

// Degree is len(st.Adjacency(v, out, p)), counted without the copy.
func (st *Store) Degree(v rdf.TermID, out bool, p rdf.TermID) (n int) {
	adj, skip := st.run(v, out)
	if adj = labelRun(adj, p); !skip {
		return len(adj)
	}
	for _, he := range adj {
		if st.home(he.V) {
			n++
		}
	}
	return n
}

// labelRun returns adj's half-edges labeled p, all of them when p is
// rdf.NoTerm; adj is sorted by label.
func labelRun(adj []HalfEdge, p rdf.TermID) []HalfEdge {
	if p == rdf.NoTerm {
		return adj
	}
	lo := after(adj, p-1)
	return adj[lo : lo+after(adj[lo:], p)]
}

// after returns the index of adj's first half-edge labeled above p.
func after(adj []HalfEdge, p rdf.TermID) int {
	lo, hi := 0, len(adj)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); adj[m].P <= p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// HasTriple reports whether at least one ⟨s,p,o⟩ edge instance exists.
func (st *Store) HasTriple(s, p, o rdf.TermID) bool { return st.CountTriples(s, p, o) > 0 }

// CountTriples returns the number of ⟨s,p,o⟩ edge instances (multigraph
// multiplicity).
func (st *Store) CountTriples(s, p, o rdf.TermID) int {
	r, skip := st.run(s, true)
	if skip && !st.home(o) {
		return 0
	}
	lo, _ := slices.BinarySearchFunc(r, HalfEdge{p, o}, compareHalfEdges)
	hi := lo
	for hi < len(r) && r[hi] == (HalfEdge{p, o}) {
		hi++
	}
	return hi - lo
}

// Triples returns a copy of all indexed triples in (S,P,O) order: the
// vertices in ID order, each with its out-edges in (P, V) order.
func (st *Store) Triples() []rdf.Triple {
	out := make([]rdf.Triple, 0, st.size)
	for vs := range st.vertices.All() {
		for _, s := range vs {
			adj, skip := st.run(s, true)
			for _, he := range adj {
				if !skip || st.home(he.V) {
					out = append(out, rdf.Triple{S: s, P: he.P, O: he.V})
				}
			}
		}
	}
	return out
}

// signatureOK is the gStore-style vertex signature test: u can match query
// vertex qv only if, for every query edge incident to qv with a constant
// label, u has at least one adjacent edge with that label in the right
// direction, and for variable-labeled incident edges u has at least one
// edge in that direction. It looks each direction of u's adjacency up
// once. Unless adj is nil, it leaves in adj[i] u's half-edges that can
// carry each incident query edge i that is no self-loop, via included
// (Adjacency's answer for e.Label).
//
// Query edge via (-1 for none) is skipped: the caller reached u over a
// data edge of this store that matches via, so u passes via's test by
// construction. A self-loop via is matched only by a loop at u, which
// passes both of its directions; a caller whose u is merely one end of an
// edge with a self-loop's label passes -1. adj is exact only at a vertex
// of the home set, the only kind a caller passing it admits.
func (st *Store) signatureOK(q *query.Graph, qv int, u rdf.TermID, via int, adj [][]HalfEdge) bool {
	r := reach{st: st, u: u}
	for i, e := range q.Edges {
		switch {
		case e.From != qv && e.To != qv:
		case e.From == e.To:
			if i != via && (!st.holds(r.along(e, true), r.skip) || !st.holds(r.along(e, false), r.skip)) {
				return false
			}
		case i == via:
			if adj != nil {
				adj[i] = r.along(e, e.From == qv)
			}
		default:
			a := r.along(e, e.From == qv)
			if !st.holds(a, r.skip) {
				return false
			}
			if adj != nil {
				adj[i] = a
			}
		}
	}
	return true
}

// reach is one vertex's adjacency, each direction looked up on first use.
type reach struct {
	st            *Store
	u             rdf.TermID
	out, in       []HalfEdge
	gotOut, gotIn bool
	skip          bool
}

// along returns u's half-edges that can carry query edge e at u: its
// out-edges when out, else its in-edges, narrowed to e's label unless
// that is a variable.
func (r *reach) along(e query.Edge, out bool) []HalfEdge {
	if out && !r.gotOut {
		r.out, r.skip = r.st.run(r.u, true)
		r.gotOut = true
	} else if !out && !r.gotIn {
		r.in, r.skip = r.st.run(r.u, false)
		r.gotIn = true
	}
	if out {
		return labelRun(r.out, e.Label)
	}
	return labelRun(r.in, e.Label)
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

// hasEdge reports whether some s→o edge instance could carry query edge
// e: one labeled e.Label, or any at all when e's label is a variable.
func (st *Store) hasEdge(e query.Edge, s, o rdf.TermID) bool {
	if !e.HasVarLabel() {
		return st.HasTriple(s, e.Label, o)
	}
	adj, skip := st.run(s, true)
	if skip && !st.home(o) {
		return false
	}
	far := o // and every s→o edge of the index is st's
	if in, _ := st.run(o, false); len(in) < len(adj) {
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

// CandidatesFunc computes C(Q, v): the vertices that could match query
// vertex qv, per the signature test and the edges qv shares with constant
// vertices (Section VI uses exactly this set). The result is sorted. For
// constant vertices it is the vertex itself when present.
//
// Both tests read u's own adjacency, so the set is exact only for a vertex
// whose every edge the store holds: any vertex of the global store, an
// internal vertex of a fragment's store (Definition 1). An extended vertex
// carries only its crossing edges there and may be dropped wrongly, which
// is why package candidates keeps the internal vertices alone.
//
// Two more tests narrow it, either of which may be nil; a constant qv
// calls neither. admit sees each seed before the others,
// so that a vertex it rejects costs no adjacency read. keep sees each
// vertex u that passes the rest with adj, where adj[i] holds u's
// half-edges that can carry q.Edges[i] at qv's end (Adjacency's answer)
// for each edge i incident to qv that is no self-loop: the lists the
// signature test read, so that keep need not read them again. adj is
// reused from one call to the next.
func (st *Store) CandidatesFunc(q *query.Graph, qv int, admit func(u rdf.TermID) bool, keep func(u rdf.TermID, adj [][]HalfEdge) bool) []rdf.TermID {
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
	var skip bool
	label, via, n := -1, -1, st.vertices.Len()
	for i, e := range q.Edges {
		if e.From != qv && e.To != qv {
			continue
		}
		if c, outgoing, ok := constantEnd(q, qv, e); ok {
			adj, sk := st.run(c, !outgoing)
			if adj = labelRun(adj, e.Label); !st.holds(adj, sk) {
				return nil
			}
			if len(adj) <= n {
				anchor, skip, label, via, n = adj, sk, -1, i, len(adj)
			}
		} else if c := st.byPred[e.Label].Len(); !e.HasVarLabel() && c < n {
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
			if !skip || st.home(he.V) {
				seed = append(seed, he.V)
			}
		}
	case label >= 0:
		e := q.Edges[label]
		for ts := range st.byPred[e.Label].All() {
			for _, t := range ts {
				if e.From == qv {
					seed = append(seed, t.S)
				}
				if e.To == qv {
					seed = append(seed, t.O)
				}
			}
		}
	default:
		for vs := range st.vertices.All() {
			seed = append(seed, vs...)
		}
	}
	slices.Sort(seed)
	seed = slices.Compact(seed)
	var adj [][]HalfEdge
	if keep != nil {
		adj = make([][]HalfEdge, len(q.Edges))
	}
	out := seed[:0]
	for _, u := range seed {
		if (admit == nil || admit(u)) && st.signatureOK(q, qv, u, via, adj) && st.constantsOK(q, qv, u) && (keep == nil || keep(u, adj)) {
			out = append(out, u)
		}
	}
	return out
}
