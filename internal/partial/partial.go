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
// A site's matches are one Set: columns of serialization vectors (Fig.
// 3), edge-label bindings and signs, the fields a site ships and the
// coordinator reads. Which query edges a match matches, and which of
// those cross, follow from them and the query (the rule is on Set, and
// AppendCrossing is its one implementation): the coordinator checks the
// columns' shape (Check), counting the crossing edges as it goes, and
// the LEC features intern them straight from the vectors. Match, one
// match as a struct of its own, is the form the benchmark module's layer
// drive reads (Compute, Set.Matches) and hands back (SetOf).
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

// Set is one site's local partial matches, all of fragment Frag, as
// columns (At cuts match i out): the serialization vectors [f(v1), ...,
// f(vn)] with rdf.NoTerm as NULL, exactly as in Fig. 3, Stride slots
// each; the edge-label bindings, indexed by query variable (rdf.NoTerm
// where unbound), LabelStride slots each — one per query variable when
// the query has an edge-label variable, else none; and the LECSign
// bitstrings, bit u set iff slot u is an internal vertex of Frag
// (Definition 8 item 3).
//
// Those are the matches; the rest is derived from them and the query. A
// match is valid under Definition 5, so query edge (u, p, w) is a
// crossing edge of it exactly when slots u and w are both bound and
// exactly one of their Sign bits is set; its triple is (vec[u], p or the
// binding of p's variable, vec[w]). The edge is matched exactly when both
// ends are bound and at least one Sign bit is set: condition 5 forces
// every edge at an internal vertex. AppendCrossing applies the rule.
type Set struct {
	Frag                int
	Stride, LabelStride int
	Sign                []uint64
	Vec, EdgeVars       []rdf.TermID
	// Crossing counts the matches' crossing edges, and Query is the query
	// they answer: the site that finds the matches sets both, and so does
	// Check on the coordinator's side of the wire. Neither travels.
	Crossing int
	Query    *query.Graph
}

// newSet returns an empty set of fragment frag's matches of q.
func newSet(q *query.Graph, frag int) Set {
	labels := 0
	if slices.ContainsFunc(q.Edges, query.Edge.HasVarLabel) {
		labels = len(q.Vars)
	}
	return Set{Frag: frag, Stride: len(q.Vertices), LabelStride: labels, Query: q}
}

// Len reports the number of matches.
func (s *Set) Len() int { return len(s.Sign) }

// At returns match i's vector and its edge-label bindings, nil when the
// query has no edge-label variable. Both alias s and are capped.
func (s *Set) At(i int) (vec, edgeVars []rdf.TermID) {
	v, l := s.Stride, s.LabelStride
	return s.Vec[i*v : (i+1)*v : (i+1)*v], s.EdgeVars[i*l : (i+1)*l : (i+1)*l]
}

// add appends a match with crossing crossing edges.
func (s *Set) add(vec, edgeVars []rdf.TermID, sign uint64, crossing int) {
	s.Sign = append(s.Sign, sign)
	s.Vec = append(s.Vec, vec...)
	if s.LabelStride > 0 {
		s.EdgeVars = append(s.EdgeVars, edgeVars...)
	}
	s.Crossing += crossing
}

// Match is match i of a Set as a struct of its own, with the set's
// fragment and query: the form the benchmark module's entry points take
// or return (Compute, cluster.EachRow, lec.Compute and Prune,
// assembly.Assemble).
type Match struct {
	Frag          int
	Vec, EdgeVars []rdf.TermID
	Sign          uint64
	Query         *query.Graph
}

// Matches returns s's matches as structs aliasing its columns.
func (s *Set) Matches() []*Match {
	ms, out := make([]Match, s.Len()), make([]*Match, s.Len())
	for i := range ms {
		vec, edgeVars := s.At(i)
		ms[i] = Match{Frag: s.Frag, Vec: vec, EdgeVars: edgeVars, Sign: s.Sign[i], Query: s.Query}
		out[i] = &ms[i]
	}
	return out
}

// SetOf returns pms, matches of q, as sets: one per run of matches of one
// fragment, so the sets' matches end to end are pms.
func SetOf(q *query.Graph, pms []*Match) []Set {
	var sets []Set
	var cross []CrossEdge
	for i, m := range pms {
		if i == 0 || m.Frag != pms[i-1].Frag {
			sets = append(sets, newSet(q, m.Frag))
		}
		cross = AppendCrossing(cross[:0], q, m.Vec, m.EdgeVars, m.Sign)
		sets[len(sets)-1].add(m.Vec, m.EdgeVars, m.Sign, len(cross))
	}
	return sets
}

// MatchBytes is the wire size of every match of q in the §IX model, the
// one price of a match in data-shipment accounting: a small header and
// 4 bytes per slot of its vector and bindings. The crossing edges are
// derived, so they cost nothing. It prices a match of the paper's
// deployment, shipped on its own, not the columns a Set travels in, so
// that the model's figures do not move with this codebase's encoding.
func MatchBytes(q *query.Graph) int {
	s := newSet(q, 0)
	return 8 + 4*(s.Stride+s.LabelStride)
}

// AppendCrossing appends the crossing edges of the match of vector vec,
// edge-label bindings edgeVars and sign sign to dst in query-edge order,
// which is (QEdge, S, P, O) order: a query edge has at most one. It is
// the one place crossing edges are derived from a match: the rule on
// Set, both ends bound and exactly one of them internal.
func AppendCrossing(dst []CrossEdge, q *query.Graph, vec, edgeVars []rdf.TermID, sign uint64) []CrossEdge {
	for i, e := range q.Edges {
		s, o := vec[e.From], vec[e.To]
		if s == rdf.NoTerm || o == rdf.NoTerm || (sign>>uint(e.From)^sign>>uint(e.To))&1 == 0 {
			continue
		}
		p := e.Label
		if e.HasVarLabel() {
			p = edgeVars[e.LabelVar]
		}
		dst = append(dst, CrossEdge{QEdge: i, S: s, P: p, O: o})
	}
	return dst
}

// Check reports whether s — a site's reply as it came off the wire —
// fits q: the rule indexes the columns by q, so a set that does not fit
// is an error. A set that fits gets q as its Query and its crossing
// edges counted.
func Check(q *query.Graph, s *Set) error {
	if err := checkShape(q, s); err != nil {
		return fmt.Errorf("partial: matches of fragment %d: %w", s.Frag, err)
	}
	s.Query = q
	return nil
}

// checkShape requires q's strides, columns of one entry per match, and
// no Sign bit past a vector or on a NULL slot, counting the crossing
// edges as it goes.
func checkShape(q *query.Graph, s *Set) error {
	want, n := newSet(q, s.Frag), s.Len()
	switch {
	case s.Stride != want.Stride:
		return fmt.Errorf("vectors of %d slots for %d query vertices", s.Stride, want.Stride)
	case s.LabelStride != want.LabelStride:
		return fmt.Errorf("%d edge-label slots a match, want %d", s.LabelStride, want.LabelStride)
	case len(s.Vec) != n*s.Stride || len(s.EdgeVars) != n*s.LabelStride:
		return fmt.Errorf("%d vector and %d edge-label slots for %d matches", len(s.Vec), len(s.EdgeVars), n)
	}
	var cross [MaxQuerySize]CrossEdge
	s.Crossing = 0
	for i, sign := range s.Sign {
		vec, edgeVars := s.At(i)
		if sign>>uint(len(vec)) != 0 {
			return fmt.Errorf("match %d: sign %#x sets a bit past %d query vertices", i, sign, len(vec))
		}
		for u, t := range vec {
			if t == rdf.NoTerm && sign&(1<<uint(u)) != 0 {
				return fmt.Errorf("match %d: sign marks NULL slot %d internal", i, u)
			}
		}
		s.Crossing += len(AppendCrossing(cross[:0], q, vec, edgeVars, sign))
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

// Compute is ComputeSet's matches as structs (Set.Matches).
func Compute(f *fragment.Fragment, q *query.Graph, opts Options) ([]*Match, error) {
	s, err := ComputeSet(f, q, opts)
	return s.Matches(), err
}

// ComputeSet enumerates all local partial matches of q in fragment f,
// each once, in seed order: by the first (crossing edge, query edge)
// pair it contains, crossing edges in (S,P,O) order — f.Crossing's — and
// query edges in rank order.
func ComputeSet(f *fragment.Fragment, q *query.Graph, opts Options) (Set, error) {
	edges, masks := seedDomain(f, q)
	return enumerate(f, q, edges, masks, opts)
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
// and returns their matches in chunk order, or ErrCanceled.
func enumerate(f *fragment.Fragment, q *query.Graph, edges runs.List[rdf.Triple], masks []uint64, opts Options) (Set, error) {
	if len(q.Vertices) > MaxQuerySize || len(q.Edges) > MaxQuerySize {
		return Set{}, fmt.Errorf("partial: query exceeds %d vertices/edges", MaxQuerySize)
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
	chunks := opts.Pool.Split(edges.Len())
	var stop atomic.Bool
	ens := make([]*enumerator, len(chunks))
	opts.Pool.Run(chunks, opts.OnTask, func(k, lo, hi int) {
		en := &enumerator{
			Search: store.NewSearch(f.Store, q), f: f, q: q, opts: opts, edges: edges, masks: masks,
			inc: inc, seedOrder: seedOrder, seedPos: seedPos, stop: &stop, out: newSet(q, f.ID),
		}
		en.Admit = en.admit
		en.Next = en.expand
		ens[k] = en
		en.run(lo, hi)
	})
	// Cancellation is the one way a chunk fails; the first chunk to see it
	// stops the rest through stop.
	if stop.Load() {
		return Set{}, ErrCanceled
	}
	if len(ens) == 1 {
		return ens[0].out, nil
	}
	// No match is found by two chunks (see finalize): the result is the
	// chunks' matches end to end.
	out := newSet(q, f.ID)
	signs, vecs, labels := make([][]uint64, len(ens)), make([][]rdf.TermID, len(ens)), make([][]rdf.TermID, len(ens))
	for k, en := range ens {
		signs[k], vecs[k], labels[k] = en.out.Sign, en.out.Vec, en.out.EdgeVars
		out.Crossing += en.out.Crossing
	}
	out.Sign, out.Vec, out.EdgeVars = slices.Concat(signs...), slices.Concat(vecs...), slices.Concat(labels...)
	return out, nil
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

	out      Set
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
	var sign uint64
	for i, u := range en.Vertex {
		if u != rdf.NoTerm && en.f.IsInternal(u) {
			sign |= 1 << uint(i)
		}
	}
	en.crossing = AppendCrossing(en.crossing[:0], en.q, en.Vertex, en.EdgeVar, sign)
	first := en.seedPos[en.seedQE]
	for _, c := range en.crossing {
		t := rdf.Triple{S: c.S, P: c.P, O: c.O}
		if t.Less(en.seedT) || (t == en.seedT && en.seedPos[c.QEdge] < first) {
			return
		}
	}
	en.out.add(en.Vertex, en.EdgeVar, sign, len(en.crossing))
}
