// Package partial computes local partial matches (Definition 5 of the
// paper): the overlap a crossing SPARQL match leaves on a single fragment.
// It implements the evaluation algorithm of Peng et al. [18] that this
// paper builds on — crossing-edge-seeded expansion which, by construction,
// satisfies Definition 5's six conditions (see Verify for an independent
// checker used by the tests) — as a driver of the site's own search
// (store.Search): the enumerator picks the edge Definition 5 forces next
// and the shared step matches it. A match reachable from several of its
// crossing edges is kept only under the first of them in seed order, so
// each is built once and chunks of the seed list need no merge.
//
// A match is its serialization vector (Fig. 3), its edge-label bindings
// and its sign: which query edges it matches, and which of those cross,
// follow from them and the query (the rule is on Match, and
// AppendCrossing is its one implementation). A site ships only those
// fields, and the coordinator checks their shape (Check) and derives
// crossing edges where it needs them: the LEC features intern them
// straight from the vectors.
package partial

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"
	"time"

	"gstored/internal/fragment"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/runs"
	"gstored/internal/store"
)

// MaxQuerySize bounds query vertices and edges so signatures fit in uint64
// bitsets. It mirrors query.MaxSize, which query.Validate enforces at
// compile time; the checks here and in the engine are defense in depth
// for hand-built graphs that bypassed validation.
const MaxQuerySize = query.MaxSize

// CrossEdge records one crossing edge of a partial match together with the
// query edge it matches (the function g of Definition 8 maps the former to
// the latter).
type CrossEdge struct {
	QEdge   int
	S, P, O rdf.TermID
}

// Match is one local partial match. Vec is the serialization vector
// [f(v1), ..., f(vn)] with rdf.NoTerm as NULL, exactly as in Fig. 3.
//
// Frag, Vec, EdgeVars and Sign are the match; the rest is derived from
// them and the query. A match is valid under Definition 5, so query edge
// (u, p, w) is a crossing edge of it exactly when Vec[u] and Vec[w] are
// both bound and exactly one of their Sign bits is set; its triple is
// (Vec[u], p or EdgeVars[p's variable], Vec[w]). The edge is matched
// exactly when both ends are bound and at least one Sign bit is set:
// condition 5 forces every edge at an internal vertex. AppendCrossing
// applies the rule.
type Match struct {
	Frag int
	Vec  []rdf.TermID
	// EdgeVars binds edge-label variables, indexed by query variable
	// index (rdf.NoTerm where unbound; vertex variables live in Vec). It
	// is nil when the query has no edge-label variable.
	EdgeVars []rdf.TermID
	// Sign is the LECSign bitstring: bit i set iff Vec[i] is an internal
	// vertex of Frag (Definition 8 item 3).
	Sign uint64
	// Query is the query the match answers: the site that finds a match
	// and Check, on the coordinator's side of the wire, set it. It does
	// not travel. lec.Compute, which is given no query, derives crossing
	// edges by it.
	Query *query.Graph
}

// MatchBytes is the wire size of every match of q, the one price of a
// match in data-shipment accounting: a small header and 4 bytes per
// slot, its Vec holding one per query vertex and, when q has an
// edge-label variable, its EdgeVars one per query variable. The
// crossing edges are derived, so they cost nothing.
func MatchBytes(q *query.Graph) int {
	n := 8 + 4*len(q.Vertices)
	if hasLabelVar(q) {
		n += 4 * len(q.Vars)
	}
	return n
}

// AppendCrossing appends m's crossing edges to dst in query-edge order,
// which is (QEdge, S, P, O) order: a query edge has at most one. It is
// the one place crossing edges are derived from a match: the rule on
// Match, both ends bound and exactly one of them internal.
func AppendCrossing(dst []CrossEdge, q *query.Graph, m *Match) []CrossEdge {
	for i, e := range q.Edges {
		s, o := m.Vec[e.From], m.Vec[e.To]
		if s == rdf.NoTerm || o == rdf.NoTerm || (m.Sign>>uint(e.From)^m.Sign>>uint(e.To))&1 == 0 {
			continue
		}
		p := e.Label
		if e.HasVarLabel() {
			p = m.EdgeVars[e.LabelVar]
		}
		dst = append(dst, CrossEdge{QEdge: i, S: s, P: p, O: o})
	}
	return dst
}

// hasLabelVar reports whether some edge of q has a variable label.
func hasLabelVar(q *query.Graph) bool {
	return slices.ContainsFunc(q.Edges, query.Edge.HasVarLabel)
}

// Check reports whether every match in ms — a site's reply as it came
// off the wire — fits q: the rule indexes Vec and EdgeVars by q, so a
// match that does not fit is an error. Each match that fits gets q as
// its Query.
func Check(q *query.Graph, ms []*Match) error {
	labels := hasLabelVar(q)
	for i, m := range ms {
		if err := checkShape(q, m, labels); err != nil {
			return fmt.Errorf("partial: match %d of fragment %d: %w", i, m.Frag, err)
		}
		m.Query = q
	}
	return nil
}

// checkShape requires one Vec slot per query vertex, EdgeVars nil
// exactly when q has no edge-label variable (labels) and one slot per
// query variable otherwise, and no Sign bit past Vec or on a NULL slot.
func checkShape(q *query.Graph, m *Match, labels bool) error {
	switch {
	case len(m.Vec) != len(q.Vertices):
		return fmt.Errorf("vector of %d slots for %d query vertices", len(m.Vec), len(q.Vertices))
	case !labels && m.EdgeVars != nil:
		return fmt.Errorf("edge-label bindings for a query without a label variable")
	case labels && len(m.EdgeVars) != len(q.Vars):
		return fmt.Errorf("%d edge-label slots for %d query variables", len(m.EdgeVars), len(q.Vars))
	case m.Sign>>uint(len(q.Vertices)) != 0:
		return fmt.Errorf("sign %#x sets a bit past %d query vertices", m.Sign, len(q.Vertices))
	}
	for i, u := range m.Vec {
		if u == rdf.NoTerm && m.Sign&(1<<uint(i)) != 0 {
			return fmt.Errorf("sign marks NULL slot %d internal", i)
		}
	}
	return nil
}

// Options tunes Compute.
type Options struct {
	// ExtendedFilter, when non-nil, vetoes binding query vertex qv to
	// extended vertex u — the Section VI candidate-vector optimization
	// plugs in here.
	ExtendedFilter func(qv int, u rdf.TermID) bool
	// Cancel, when non-nil, is polled periodically during expansion;
	// returning true aborts enumeration with ErrCanceled. The engine plugs
	// context cancellation in here.
	Cancel func() bool
	// EdgeRank, when it has one entry per query edge, orders expansion:
	// incident-edge lists and seed attempts try lower-ranked (more
	// selective) edges first. The result set is rank-independent — the
	// search is exhaustive — but good ranks prune dead branches earlier.
	EdgeRank []int
	// Pool, when non-nil with width > 1, splits the fragment's crossing-
	// edge seed list into contiguous chunks enumerated concurrently; the
	// chunks' matches end to end are the sequential result, in order.
	Pool *pool.Pool
	// OnTask, when non-nil, receives the wall time of each enumeration
	// task (one per seed chunk; exactly one for a sequential run). It
	// may be called concurrently.
	OnTask func(d time.Duration)
}

// ErrCanceled is returned when Options.Cancel reported cancellation.
var ErrCanceled = errors.New("partial: evaluation canceled")

// Compute enumerates all local partial matches of q in fragment f, each
// once, in seed order: by the first (crossing edge, query edge) pair it
// contains, crossing edges in (S,P,O) order — f.Crossing's — and query
// edges in rank order.
func Compute(f *fragment.Fragment, q *query.Graph, opts Options) ([]*Match, error) {
	edges, masks := seedDomain(f, q)
	ens, err := enumerate(f, q, edges, masks, opts)
	if err != nil {
		return nil, err
	}
	if len(ens) == 1 {
		return ens[0].out, nil
	}
	// No match is found by two chunks (see finalize): the result is the
	// chunks' matches end to end.
	outs := make([][]*Match, len(ens))
	for i, en := range ens {
		outs[i] = en.out
	}
	return slices.Concat(outs...), nil
}

// seedDomain returns the crossing edges Compute seeds from, in (S,P,O)
// order, with the query edges each seeds (masks nil: all): the candidate
// domain when every query variable joins a constant, else f.Crossing —
// an unanchored variable's candidate scan costs more than the pairs it
// saves (LQ1 and LQ7 on LUBM(32) evaluate 1.4× and 1.8× slower).
func seedDomain(f *fragment.Fragment, q *query.Graph) (runs.List[rdf.Triple], []uint64) {
	joins := make([]bool, len(q.Vertices))
	for _, e := range q.Edges {
		joins[e.From] = joins[e.From] || !q.Vertices[e.To].IsVar()
		joins[e.To] = joins[e.To] || !q.Vertices[e.From].IsVar()
	}
	for qv, v := range q.Vertices {
		if v.IsVar() && !joins[qv] {
			return f.Crossing, nil
		}
	}
	edges, masks := candidateSeeds(f, q)
	return runs.Of(edges), masks
}

// candidateSeeds is the candidate domain: the crossing edges at the local
// candidates of the query vertex they bind, in (S,P,O) order, each with
// the mask of query edges it seeds. Condition 5 makes every internal
// binding of a match such a candidate, and Candidates is exact for them.
// A variable's candidates are the internal ones CandidatesFunc admits,
// with the half-edges its signature test read; a constant is its own
// candidate when internal.
func candidateSeeds(f *fragment.Fragment, q *query.Graph) ([]rdf.Triple, []uint64) {
	seeds := make(map[rdf.Triple]uint64)
	inc := q.IncidentEdges()
	// at records the crossing edges of candidate u of qv, where adj[qe]
	// holds u's half-edges that can carry incident edge qe. A crossing
	// edge is no self-loop, so a self-looping qe seeds none.
	at := func(qv int, u rdf.TermID, adj [][]store.HalfEdge) {
		for _, qe := range inc[qv] {
			e := q.Edges[qe]
			if e.From == e.To {
				continue
			}
			for _, he := range adj[qe] {
				if f.IsInternal(he.V) {
					continue
				}
				t := rdf.Triple{S: he.V, P: he.P, O: u}
				if e.From == qv {
					t = rdf.Triple{S: u, P: he.P, O: he.V}
				}
				seeds[t] |= 1 << uint(qe)
			}
		}
	}
	adj := make([][]store.HalfEdge, len(q.Edges))
	for qv, v := range q.Vertices {
		switch {
		case v.IsVar():
			f.Store.CandidatesFunc(q, qv, f.IsInternal, func(u rdf.TermID, adj [][]store.HalfEdge) bool {
				at(qv, u, adj)
				return true
			})
		case f.IsInternal(v.Const):
			for _, qe := range inc[qv] {
				adj[qe] = f.Store.Adjacency(v.Const, q.Edges[qe].From == qv, q.Edges[qe].Label)
			}
			at(qv, v.Const, adj)
		}
	}
	edges := slices.SortedFunc(maps.Keys(seeds), rdf.Triple.Compare)
	masks := make([]uint64, len(edges))
	for i, t := range edges {
		masks[i] = seeds[t]
	}
	return edges, masks
}

// enumerate runs one enumerator per contiguous chunk of the seed domain
// (edges, masks) on the pool — a sequential run is the one-chunk case —
// and returns them in chunk order, or ErrCanceled.
func enumerate(f *fragment.Fragment, q *query.Graph, edges runs.List[rdf.Triple], masks []uint64, opts Options) ([]*enumerator, error) {
	if len(q.Vertices) > MaxQuerySize || len(q.Edges) > MaxQuerySize {
		return nil, fmt.Errorf("partial: query exceeds %d vertices/edges", MaxQuerySize)
	}
	inc := q.IncidentEdges()
	seedOrder := make([]int, len(q.Edges))
	for i := range seedOrder {
		seedOrder[i] = i
	}
	if rank := opts.EdgeRank; len(rank) == len(q.Edges) {
		byRank := func(a, b int) int { return cmp.Compare(rank[a], rank[b]) }
		slices.SortStableFunc(seedOrder, byRank)
		for qv := range inc {
			slices.SortStableFunc(inc[qv], byRank)
		}
	}
	seedPos := make([]int, len(seedOrder))
	for pos, qe := range seedOrder {
		seedPos[qe] = pos
	}
	labels := hasLabelVar(q)
	chunks := opts.Pool.Split(edges.Len())
	var stop atomic.Bool
	ens := make([]*enumerator, len(chunks))
	opts.Pool.Run(chunks, opts.OnTask, func(k, lo, hi int) {
		en := &enumerator{
			Search: store.NewSearch(f.Store, q), f: f, q: q, opts: opts, edges: edges, masks: masks,
			inc: inc, seedOrder: seedOrder, seedPos: seedPos, stop: &stop, labels: labels,
		}
		en.Admit = en.admit
		en.Next = en.expand
		ens[k] = en
		en.run(lo, hi)
	})
	// Cancellation is the one way a chunk fails; the first chunk to see it
	// stops the rest through stop.
	if stop.Load() {
		return nil, ErrCanceled
	}
	return ens, nil
}

// enumerator drives a store.Search by Definition 5: from a crossing edge
// matched to a query edge, every query edge incident to an internally
// mapped vertex must be matched (condition 5), and nothing else may be.
// Admission lets internal vertices through and asks the Section VI
// filter about extended ones.
type enumerator struct {
	store.Search
	f    *fragment.Fragment
	q    *query.Graph
	opts Options

	edges     runs.List[rdf.Triple] // the seed domain, in (S,P,O) order; run takes a chunk
	masks     []uint64              // per edge, a bitmask of the query edges it seeds; nil: all
	inc       [][]int               // incident edge lists per query vertex, in rank order
	seedOrder []int                 // query edges in rank order
	seedPos   []int                 // seedPos[qe] is qe's place in seedOrder

	// The seed the current expansion grew from.
	seedT  rdf.Triple
	seedQE int

	out []*Match
	// The slabs out's matches are carved from.
	matches slab[Match]
	terms   slab[rdf.TermID]

	labels   bool        // q has an edge-label variable: matches carry EdgeVars
	crossing []CrossEdge // the current candidate's crossing edges, for the seed-order rule

	steps uint
	stop  *atomic.Bool // shared: some chunk saw cancellation
}

// run seeds an expansion from every (crossing edge, query edge) pair of
// the domain's edges[lo:hi], query edges in rank order. A second instance
// of a crossing edge seeds the same expansions as the first, so it is
// skipped — by looking at the whole domain, not the chunk: the first
// instance may sit in the chunk before.
func (en *enumerator) run(lo, hi int) {
	var prev rdf.Triple
	if lo > 0 {
		prev = en.edges.At(lo - 1)
	}
	i := lo
	for ts := range en.edges.Slices(lo, hi) {
		for _, t := range ts {
			if i == 0 || t != prev {
				en.seedT = t
				for _, qe := range en.seedOrder {
					if en.Stop {
						return
					}
					if en.masks == nil || en.masks[i]&(1<<uint(qe)) != 0 {
						en.seedQE = qe
						en.Seed(qe, t)
					}
				}
			}
			prev = t
			i++
		}
	}
}

// admit enforces the extended-candidate filter; u comes off one of the
// fragment's own edges, so not internal means extended. The edge that
// bound u plays no part.
func (en *enumerator) admit(qv int, u rdf.TermID, _ int) bool {
	return en.opts.ExtendedFilter == nil || en.f.IsInternal(u) || en.opts.ExtendedFilter(qv, u)
}

// expand finds a query vertex bound to an internal vertex with an
// unmatched incident edge and matches that edge against the vertex's
// adjacency: internal vertices see all their edges (Definition 1), so if
// no data edge fits, the candidate dies — exactly condition 5. When no
// such edge remains the candidate is a local partial match.
func (en *enumerator) expand() {
	if en.steps&0xff == 0 && (en.stop.Load() || (en.opts.Cancel != nil && en.opts.Cancel())) {
		en.stop.Store(true)
		en.Stop = true
		return
	}
	en.steps++
	for qv, u := range en.Vertex {
		if u == rdf.NoTerm || !en.f.IsInternal(u) {
			continue
		}
		for _, ei := range en.inc[qv] {
			if en.Label[ei] == rdf.NoTerm {
				en.Extend(ei)
				return
			}
		}
	}
	en.finalize()
}

// finalize records the current candidate, unless an earlier seed found
// it already. A local partial match is weakly connected through its
// internally mapped vertices (condition 6) and every edge incident to
// those is forced (condition 5), so the expansion from any crossing
// edge it contains reaches it: keeping it only under the first of them
// in seed order keeps it exactly once, across chunks too.
func (en *enumerator) finalize() {
	cur := Match{Vec: en.Vertex, EdgeVars: en.EdgeVar}
	for i, u := range en.Vertex {
		if u != rdf.NoTerm && en.f.IsInternal(u) {
			cur.Sign |= 1 << uint(i)
		}
	}
	en.crossing = AppendCrossing(en.crossing[:0], en.q, &cur)
	first := en.seedPos[en.seedQE]
	for _, c := range en.crossing {
		t := rdf.Triple{S: c.S, P: c.P, O: c.O}
		if t.Less(en.seedT) || (t == en.seedT && en.seedPos[c.QEdge] < first) {
			return
		}
	}
	m := &en.matches.take(1)[0]
	m.Frag, m.Sign, m.Query = en.f.ID, cur.Sign, en.q
	m.Vec = en.terms.take(len(en.Vertex))
	copy(m.Vec, en.Vertex)
	if en.labels {
		m.EdgeVars = en.terms.take(len(en.EdgeVar))
		copy(m.EdgeVars, en.EdgeVar)
	}
	en.out = append(en.out, m)
}

// slab hands out capped slices of one backing array, so a match's vectors
// cost no allocation of their own; when it runs out the next array is
// twice the last, starting at 16 requests of the first size, so a chunk
// that finds few matches allocates little.
type slab[T any] struct {
	free []T
	size int
}

// take returns n zeroed elements, nil for none.
func (s *slab[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		s.size = max(2*s.size, 16*n)
		s.free = make([]T, s.size)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}
