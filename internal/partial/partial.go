// Package partial computes local partial matches (Definition 5 of the
// paper): the overlap a crossing SPARQL match leaves on a single fragment.
// It implements the evaluation algorithm of Peng et al. [18] that this
// paper builds on — crossing-edge-seeded expansion which, by construction,
// satisfies Definition 5's six conditions (see Verify for an independent
// checker used by the tests).
package partial

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"gstored/internal/fragment"
	"gstored/internal/key"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
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
type Match struct {
	Frag int
	Vec  []rdf.TermID
	// EdgeVars binds edge-label variables (indexed by query variable
	// index); rdf.NoTerm where unbound. Vertex variables live in Vec.
	EdgeVars []rdf.TermID
	// Crossing lists the crossing edges contained in the match, sorted by
	// (QEdge, S, P, O).
	Crossing []CrossEdge
	// MatchedEdges is a bitmask over query edges matched by this PM.
	MatchedEdges uint64
	// Sign is the LECSign bitstring: bit i set iff Vec[i] is an internal
	// vertex of Frag (Definition 8 item 3).
	Sign uint64
}

// Key returns a canonical identity for deduplication: fragment,
// serialization vector, edge-variable bindings, matched edges and crossing
// edge mappings (layout: package key).
func (m *Match) Key() string {
	var buf [192]byte // typical keys fit, so only string(b) allocates
	b := key.Int(buf[:0], m.Frag)
	b = key.Terms(b, m.Vec)
	b = key.Terms(b, m.EdgeVars)
	b = key.Uint64(b, m.MatchedEdges)
	return string(AppendCrossing(b, m.Crossing))
}

// AppendCrossing appends the crossing-edge mappings cs to key b as one
// length-prefixed section; LEC features share it (their g is a match's
// Crossing).
func AppendCrossing(b []byte, cs []CrossEdge) []byte {
	b = key.Len(b, len(cs))
	for _, c := range cs {
		b = key.Int(b, c.QEdge)
		b = key.Term(b, c.S)
		b = key.Term(b, c.P)
		b = key.Term(b, c.O)
	}
	return b
}

// EstimateBytes approximates the wire size of the match for data-shipment
// accounting: 4 bytes per vector slot and edge-variable slot, 16 bytes per
// crossing-edge mapping, plus a small header.
func (m *Match) EstimateBytes() int {
	return 8 + 4*len(m.Vec) + 4*len(m.EdgeVars) + 16*len(m.Crossing)
}

// IsComplete reports whether every query vertex is bound (no NULLs).
func (m *Match) IsComplete() bool {
	for _, v := range m.Vec {
		if v == rdf.NoTerm {
			return false
		}
	}
	return true
}

// Options tunes Compute.
type Options struct {
	// ExtendedFilter, when non-nil, vetoes binding query vertex qv to
	// extended vertex u — the Section VI candidate-vector optimization
	// plugs in here.
	ExtendedFilter func(qv int, u rdf.TermID) bool
	// MaxMatches aborts enumeration with an error beyond this many partial
	// matches (0 = unlimited); a safety valve against pathological queries.
	MaxMatches int
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
	// edge seed list into contiguous chunks enumerated concurrently and
	// merges the per-chunk matches in chunk order with global
	// deduplication, so the returned set equals the sequential one.
	Pool *pool.Pool
	// OnTask, when non-nil, receives the wall time of each enumeration
	// task (one per seed chunk; exactly one for a sequential run). It
	// may be called concurrently.
	OnTask func(d time.Duration)
}

// ErrCanceled is returned when Options.Cancel reported cancellation.
var ErrCanceled = errors.New("partial: evaluation canceled")

// ErrTooManyMatches is returned when Options.MaxMatches is exceeded.
type ErrTooManyMatches struct{ Limit int }

func (e ErrTooManyMatches) Error() string {
	return fmt.Sprintf("partial: more than %d local partial matches", e.Limit)
}

// Compute enumerates all local partial matches of q in fragment f.
func Compute(f *fragment.Fragment, q *query.Graph, opts Options) ([]*Match, error) {
	if len(q.Vertices) > MaxQuerySize || len(q.Edges) > MaxQuerySize {
		return nil, fmt.Errorf("partial: query exceeds %d vertices/edges", MaxQuerySize)
	}
	inc := q.IncidentEdges()
	seedOrder := make([]int, len(q.Edges))
	for i := range seedOrder {
		seedOrder[i] = i
	}
	if rank := opts.EdgeRank; len(rank) == len(q.Edges) {
		sort.SliceStable(seedOrder, func(a, b int) bool { return rank[seedOrder[a]] < rank[seedOrder[b]] })
		for qv := range inc {
			sort.SliceStable(inc[qv], func(a, b int) bool { return rank[inc[qv][a]] < rank[inc[qv][b]] })
		}
	}
	chunks := pool.Chunks(len(f.Crossing), 4*opts.Pool.Workers())
	if opts.Pool.Workers() > 1 && len(chunks) > 1 {
		return computeParallel(f, q, opts, inc, seedOrder, chunks)
	}
	if opts.OnTask != nil {
		start := time.Now()
		defer func() { opts.OnTask(time.Since(start)) }()
	}
	en := newEnumerator(f, q, opts, inc)
	if err := en.run(f.Crossing, seedOrder); err != nil {
		return nil, err
	}
	return en.out, nil
}

func newEnumerator(f *fragment.Fragment, q *query.Graph, opts Options, inc [][]int) *enumerator {
	return &enumerator{
		f:    f,
		q:    q,
		opts: opts,
		vec:  make([]rdf.TermID, len(q.Vertices)),
		evb:  make([]rdf.TermID, len(q.Vars)),
		lab:  make([]rdf.TermID, len(q.Edges)),
		inc:  inc,
		seen: make(map[string]bool),
	}
}

// run seeds an expansion from every (crossing triple, query edge) pair.
func (en *enumerator) run(crossing []rdf.Triple, seedOrder []int) error {
	for _, ct := range crossing {
		for _, qe := range seedOrder {
			if err := en.seed(ct, qe); err != nil {
				return err
			}
		}
	}
	return nil
}

// computeParallel enumerates contiguous chunks of the crossing-edge
// seed list concurrently. Each chunk keeps a private seen set; the
// merge walks chunks in index order with a global keep-first
// deduplication, so the returned match set equals the sequential one
// and the output order is deterministic for a fixed chunking.
func computeParallel(f *fragment.Fragment, q *query.Graph, opts Options, inc [][]int, seedOrder []int, chunks [][2]int) ([]*Match, error) {
	var stop atomic.Bool
	cancel := opts.Cancel
	poll := func() bool { return stop.Load() || (cancel != nil && cancel()) }
	outs := make([][]*Match, len(chunks))
	keys := make([][]string, len(chunks))
	errs := make([]error, len(chunks))
	tasks := make([]func(), len(chunks))
	for i, ch := range chunks {
		tasks[i] = func() {
			if stop.Load() {
				errs[i] = ErrCanceled
				return
			}
			var start time.Time
			if opts.OnTask != nil {
				start = time.Now()
			}
			chunkOpts := opts
			chunkOpts.Cancel = poll
			en := newEnumerator(f, q, chunkOpts, inc)
			errs[i] = en.run(f.Crossing[ch[0]:ch[1]], seedOrder)
			outs[i] = en.out
			keys[i] = en.keys
			if errs[i] != nil {
				stop.Store(true)
			}
			if opts.OnTask != nil {
				opts.OnTask(time.Since(start))
			}
		}
	}
	opts.Pool.Do(tasks...)
	// A real error beats the cancellations it caused in other chunks;
	// among real errors the lowest chunk index wins, deterministically.
	var firstErr error
	for _, err := range errs {
		if err != nil && !errors.Is(err, ErrCanceled) {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		for _, err := range errs {
			if err != nil {
				firstErr = err
				break
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	seen := make(map[string]bool)
	var out []*Match
	for i, ms := range outs {
		for j, m := range ms {
			mk := keys[i][j]
			if seen[mk] {
				continue
			}
			seen[mk] = true
			out = append(out, m)
		}
	}
	// The per-chunk valve bounds each chunk; the exact global check runs
	// after deduplication so the threshold semantics match sequential.
	if opts.MaxMatches > 0 && len(out) > opts.MaxMatches {
		return nil, ErrTooManyMatches{Limit: opts.MaxMatches}
	}
	return out, nil
}

type enumerator struct {
	f    *fragment.Fragment
	q    *query.Graph
	opts Options

	vec     []rdf.TermID // current vertex bindings
	evb     []rdf.TermID // edge-label variable bindings
	lab     []rdf.TermID // concrete label per matched query edge
	matched uint64       // bitmask of matched query edges
	inc     [][]int      // incident edge lists per query vertex

	seen  map[string]bool
	out   []*Match
	keys  []string // keys[i] is out[i].Key(): the chunk merge dedups on it again
	steps uint
	err   error
}

// seed starts an expansion from crossing triple ct matched to query edge qe.
func (en *enumerator) seed(ct rdf.Triple, qe int) error {
	e := en.q.Edges[qe]
	if !en.labelCompatible(e, ct.P) {
		return nil
	}
	undoS, ok := en.bind(e.From, ct.S)
	if !ok {
		return nil
	}
	if e.From == e.To && ct.S != ct.O {
		undoS()
		return nil
	}
	var undoO func()
	if e.From != e.To {
		undoO, ok = en.bind(e.To, ct.O)
		if !ok {
			undoS()
			return nil
		}
	}
	undoE, ok := en.matchEdge(qe, ct.S, ct.P, ct.O)
	if ok {
		en.expand()
		undoE()
	}
	if undoO != nil {
		undoO()
	}
	undoS()
	return en.err
}

func (en *enumerator) labelCompatible(e query.Edge, p rdf.TermID) bool {
	if e.HasVarLabel() {
		bound := en.evb[e.LabelVar]
		return bound == rdf.NoTerm || bound == p
	}
	return e.Label == p
}

// bind assigns query vertex qv to data vertex u, enforcing Definition 5
// conditions 1-2 (constants match themselves or NULL) and the extended-
// candidate filter. Binding an already-bound vertex succeeds only on
// agreement.
func (en *enumerator) bind(qv int, u rdf.TermID) (func(), bool) {
	if cur := en.vec[qv]; cur != rdf.NoTerm {
		if cur == u {
			return func() {}, true
		}
		return nil, false
	}
	v := en.q.Vertices[qv]
	if !v.IsVar() && v.Const != u {
		return nil, false
	}
	// u comes off one of the fragment's own edges, so not internal means
	// extended; IsExtended would re-check that u is in the fragment.
	if en.opts.ExtendedFilter != nil && !en.f.IsInternal(u) {
		if !en.opts.ExtendedFilter(qv, u) {
			return nil, false
		}
	}
	en.vec[qv] = u
	return func() { en.vec[qv] = rdf.NoTerm }, true
}

// matchEdge records query edge qe as matched by data edge (s,p,o), binding
// the label variable when present and enforcing the multi-edge injectivity
// of Definition 3 within parallel query edges.
func (en *enumerator) matchEdge(qe int, s, p, o rdf.TermID) (func(), bool) {
	e := en.q.Edges[qe]
	// Injectivity across parallel query edges sharing the ordered pair.
	usedSame := 0
	for j, f := range en.q.Edges {
		if j != qe && en.matched&(1<<uint(j)) != 0 && f.From == e.From && f.To == e.To && en.lab[j] == p {
			usedSame++
		}
	}
	if usedSame > 0 && en.f.Store.CountTriples(s, p, o) <= usedSame {
		return nil, false
	}
	var boundVar bool
	if e.HasVarLabel() && en.evb[e.LabelVar] == rdf.NoTerm {
		en.evb[e.LabelVar] = p
		boundVar = true
	}
	en.matched |= 1 << uint(qe)
	en.lab[qe] = p
	lv := e.LabelVar
	return func() {
		en.matched &^= 1 << uint(qe)
		en.lab[qe] = rdf.NoTerm
		if boundVar {
			en.evb[lv] = rdf.NoTerm
		}
	}, true
}

// expand drives the worklist: find a query vertex bound to an internal
// vertex with an unmatched incident edge (condition 5 forces matching it);
// if none remains, finalize the current partial match.
func (en *enumerator) expand() {
	if en.err != nil {
		return
	}
	if en.opts.Cancel != nil {
		if en.steps&0xff == 0 && en.opts.Cancel() {
			en.err = ErrCanceled
			return
		}
		en.steps++
	}
	for qv, u := range en.vec {
		if u == rdf.NoTerm || !en.f.IsInternal(u) {
			continue
		}
		for _, ei := range en.inc[qv] {
			if en.matched&(1<<uint(ei)) == 0 {
				en.matchIncident(qv, ei)
				return
			}
		}
	}
	en.finalize()
}

// matchIncident matches the unmatched query edge ei incident to the
// internally-bound query vertex qv, branching over the data edges adjacent
// to vec[qv]. Internal vertices see all their edges (Definition 1), so if
// no data edge fits, this partial candidate dies — exactly condition 5.
func (en *enumerator) matchIncident(qv, ei int) {
	e := en.q.Edges[ei]
	u := en.vec[qv]
	st := en.f.Store

	tryEdge := func(s, p, o rdf.TermID, otherQV int, other rdf.TermID) {
		if en.err != nil {
			return
		}
		if !en.labelCompatible(e, p) {
			return
		}
		undoB, ok := en.bind(otherQV, other)
		if !ok {
			return
		}
		undoE, ok := en.matchEdge(ei, s, p, o)
		if ok {
			en.expand()
			undoE()
		}
		undoB()
	}

	if e.From == qv {
		adj := st.Out(u)
		if !e.HasVarLabel() {
			adj = st.OutWith(u, e.Label)
		}
		var prev rdf.TermID
		prevV := rdf.NoTerm
		for _, he := range adj {
			if he.P == prev && he.V == prevV {
				continue // duplicate instance
			}
			prev, prevV = he.P, he.V
			if e.From == e.To && he.V != u {
				continue
			}
			tryEdge(u, he.P, he.V, e.To, he.V)
		}
		return
	}
	// e.To == qv (incoming edge).
	adj := st.In(u)
	if !e.HasVarLabel() {
		adj = st.InWith(u, e.Label)
	}
	var prev rdf.TermID
	prevV := rdf.NoTerm
	for _, he := range adj {
		if he.P == prev && he.V == prevV {
			continue
		}
		prev, prevV = he.P, he.V
		tryEdge(he.V, he.P, u, e.From, he.V)
	}
}

// finalize validates the remaining Definition 5 conditions and records the
// match.
func (en *enumerator) finalize() {
	// Condition 3: an unmatched query edge may only have a NULL endpoint or
	// two extended endpoints. (Internal endpoints are impossible here —
	// expand() exhausts them — but verify defensively.)
	for i, e := range en.q.Edges {
		if en.matched&(1<<uint(i)) != 0 {
			continue
		}
		fu, fw := en.vec[e.From], en.vec[e.To]
		if fu == rdf.NoTerm || fw == rdf.NoTerm {
			continue
		}
		if en.f.IsInternal(fu) || en.f.IsInternal(fw) {
			return // condition 5 violated; unreachable by construction
		}
	}
	m := &Match{
		Frag:         en.f.ID,
		Vec:          append([]rdf.TermID(nil), en.vec...),
		EdgeVars:     append([]rdf.TermID(nil), en.evb...),
		MatchedEdges: en.matched,
	}
	for i, e := range en.q.Edges {
		if en.matched&(1<<uint(i)) == 0 {
			continue
		}
		s, o := en.vec[e.From], en.vec[e.To]
		if en.f.IsCrossing(s, o) {
			m.Crossing = append(m.Crossing, CrossEdge{QEdge: i, S: s, P: en.lab[i], O: o})
		}
	}
	// Condition 4: at least one crossing edge (the seed guarantees it, but
	// a seed whose expansion became all-internal would be a complete local
	// match, which belongs to the local stage, not here).
	if len(m.Crossing) == 0 {
		return
	}
	slices.SortFunc(m.Crossing, func(x, y CrossEdge) int {
		return cmp.Or(cmp.Compare(x.QEdge, y.QEdge), cmp.Compare(x.S, y.S), cmp.Compare(x.P, y.P), cmp.Compare(x.O, y.O))
	})
	for i, u := range m.Vec {
		if u != rdf.NoTerm && en.f.IsInternal(u) {
			m.Sign |= 1 << uint(i)
		}
	}
	mk := m.Key()
	if en.seen[mk] {
		return
	}
	en.seen[mk] = true
	en.out = append(en.out, m)
	en.keys = append(en.keys, mk)
	if en.opts.MaxMatches > 0 && len(en.out) > en.opts.MaxMatches {
		en.err = ErrTooManyMatches{Limit: en.opts.MaxMatches}
	}
}
