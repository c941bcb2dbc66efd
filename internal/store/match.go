package store

import (
	"sync/atomic"
	"time"

	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/runs"
)

// Binding is one homomorphism from a query graph into the store (Def. 3),
// as the engine's rows see it: each query vertex is bound to its constant
// or its variable's term, except that a variable that also labels an
// edge holds the label, its vertex occurrence being matched separately.
type Binding struct {
	// Vars maps each query variable index (vertex and edge-label variables
	// alike) to its bound term.
	Vars []rdf.TermID
}

// MatchOptions tunes Match / MatchFunc.
type MatchOptions struct {
	// VertexFilter, when non-nil, vetoes assigning data vertex u to query
	// vertex qv; used by the partial-evaluation layer to confine matching
	// and by the Section VI candidate optimization to filter candidates.
	VertexFilter func(qv int, u rdf.TermID) bool
	// Cancel, when non-nil, is polled periodically during enumeration;
	// returning true abandons the search. The engine plugs context
	// cancellation in here so long matches stop cooperatively.
	Cancel func() bool
	// Order overrides the edge evaluation order with a precompiled one
	// (indices into q.Edges). The engine compiles orders against global
	// cardinalities so every fragment evaluates the same selectivity-
	// ordered plan. Without one, or with an invalid one — wrong length or
	// not a permutation — the store plans against its own cardinalities
	// (Plan).
	Order []int
	// Pool, when non-nil with width > 1, splits the first edge's seed
	// domain into contiguous chunks evaluated concurrently; yield may
	// then be called from multiple goroutines, and a yield returning false
	// stops all workers, as Cancel does. A first edge with a constant end
	// runs sequentially, and so does an order that re-seeds mid-way:
	// chunks would each re-enumerate later components.
	Pool *pool.Pool
	// OnTask, when non-nil, receives the wall time of each evaluation
	// task (one per seed chunk; exactly one for a sequential run). It
	// may be called concurrently.
	OnTask func(d time.Duration)
}

// Match enumerates all matches of q, each row copied out of its batch.
func (st *Store) Match(q *query.Graph) []Binding {
	var out []Binding
	st.MatchFunc(q, MatchOptions{}, func(rows [][]rdf.TermID) bool {
		slab := make([]rdf.TermID, len(rows)*len(q.Vars))
		for _, r := range rows {
			n := copy(slab, r)
			out = append(out, Binding{Vars: slab[:n:n]})
			slab = slab[n:]
		}
		return true
	})
	return out
}

// MatchFunc enumerates matches of q and hands them to yield in batches,
// each row a binding indexed by query variable (Binding.Vars); enumeration
// stops when yield returns false. Every evaluation task fills its own
// Batcher, flushed at the end of the task: the rows of a batch, and the
// batch, are valid only during the call.
//
// The search walks the plan order. A first edge with a constant end is
// extended from it, so the anchor Plan prices the edge at is its seed
// domain, as for a later component's. Else it seeds from the triples with
// its constant label, or every vertex for a variable one, which a pool
// splits into contiguous chunks, each walked by an independent matcher:
// every seed is owned by exactly one chunk, so the union of chunk
// emissions equals the sequential result multiset; emission order across
// chunks is unspecified.
func (st *Store) MatchFunc(q *query.Graph, opts MatchOptions, yield func(rows [][]rdf.TermID) bool) {
	if len(q.Edges) == 0 {
		return
	}
	order := opts.Order
	if !ValidOrder(order, len(q.Edges)) {
		order = EdgeOrder(st.Plan(q))
	}
	seedT, seedV := st.seedDomain(q, q.Edges[order[0]], q.Edges[order[0]].Label)
	n := seedT.Len() + seedV.Len()
	chunks := [][2]int{{0, n}}
	if connectedOrder(q, order) {
		chunks = opts.Pool.Split(n)
	}
	var stop atomic.Bool
	emit := func(rows [][]rdf.TermID) bool {
		if !yield(rows) {
			stop.Store(true)
			return false
		}
		return true
	}
	opts.Pool.Run(chunks, opts.OnTask, func(_, lo, hi int) {
		if stop.Load() {
			return
		}
		m := &matcher{Search: NewSearch(st, q), order: order, seedT: seedT, seedV: seedV, lo: lo, hi: hi,
			cancel: opts.Cancel, stop: &stop, out: NewBatcher(len(q.Vars), emit)}
		m.Admit = func(qv int, u rdf.TermID, via int) bool {
			return st.signatureOK(q, qv, u, via, nil) && (opts.VertexFilter == nil || opts.VertexFilter(qv, u))
		}
		m.Next = m.next
		m.step()
		m.out.Flush()
		m.out.Release()
	})
}

// seedDomain returns what unbound query edge e seeds from when it must
// carry label: nothing with a constant end (step extends from it), else
// the triples carrying label or, label open, every vertex's out-edges.
// At most one of the two lists is non-empty.
func (st *Store) seedDomain(q *query.Graph, e query.Edge, label rdf.TermID) (runs.List[rdf.Triple], runs.List[rdf.TermID]) {
	switch {
	case !q.Vertices[e.From].IsVar() || !q.Vertices[e.To].IsVar():
		return runs.List[rdf.Triple]{}, runs.List[rdf.TermID]{}
	case label != rdf.NoTerm:
		return st.byPred[label], runs.List[rdf.TermID]{}
	}
	return runs.List[rdf.Triple]{}, st.vertices
}

// ValidOrder reports whether order is a permutation of [0, n): an edge
// order MatchFunc follows instead of planning its own.
func ValidOrder(order []int, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, ei := range order {
		if ei < 0 || ei >= n || seen[ei] {
			return false
		}
		seen[ei] = true
	}
	return true
}

// connectedOrder reports whether every edge after the first shares a
// vertex with an earlier edge, i.e. enumeration seeds exactly once.
func connectedOrder(q *query.Graph, order []int) bool {
	bound := make([]bool, len(q.Vertices))
	for k, ei := range order {
		e := q.Edges[ei]
		if k > 0 && !bound[e.From] && !bound[e.To] {
			return false
		}
		bound[e.From] = true
		bound[e.To] = true
	}
	return true
}

// matcher drives a Search along a fixed edge order: the centralized
// matcher of the paper's sites. Admission is the signature test, minus
// the edge being matched, plus the caller's VertexFilter.
type matcher struct {
	Search
	order []int // edge evaluation order (indices into q.Edges)
	depth int   // order[:depth] is matched
	// The first edge's seed domain, of which positions [lo, hi) are this
	// matcher's share.
	seedT  runs.List[rdf.Triple]
	seedV  runs.List[rdf.TermID]
	lo, hi int
	cancel func() bool
	stop   *atomic.Bool // shared: some matcher's yield said stop
	steps  uint
	out    *Batcher
}

func (m *matcher) next() {
	m.depth++
	m.step()
	m.depth--
}

func (m *matcher) step() {
	// Poll every 256 steps: cheap enough for the hot path, prompt enough
	// for timeouts.
	if m.steps&0xff == 0 && (m.stop.Load() || (m.cancel != nil && m.cancel())) {
		m.Stop = true
	}
	m.steps++
	if m.Stop {
		return
	}
	if m.depth == len(m.order) {
		m.emit()
		return
	}
	ei := m.order[m.depth]
	e := m.q.Edges[ei]
	if m.Vertex[e.From] != rdf.NoTerm || m.Vertex[e.To] != rdf.NoTerm {
		m.Extend(ei)
		return
	}
	// Neither endpoint bound: the first edge, or the first edge of a new
	// component of a disconnected pattern, which extends from its
	// constant ends or else seeds from its whole domain.
	if m.extendFromConstants(ei) {
		return
	}
	ts, vs, lo, hi := m.seedT, m.seedV, m.lo, m.hi
	if m.depth > 0 {
		ts, vs = m.st.seedDomain(m.q, e, m.fixedLabel(e))
		lo, hi = 0, ts.Len()+vs.Len()
	}
	for run := range ts.Slices(lo, hi) {
		for _, t := range run {
			if m.Seed(ei, t); m.Stop {
				return
			}
		}
	}
	for run := range vs.Slices(lo, hi) {
		for _, s := range run {
			adj := m.st.out.of(s)
			for i, he := range adj {
				if i > 0 && he == adj[i-1] {
					continue
				}
				if m.Seed(ei, rdf.Triple{S: s, P: he.P, O: he.V}); m.Stop {
					return
				}
			}
		}
	}
}

// extendFromConstants binds the constant ends of unbound query edge ei
// and, if admitted, extends ei from them (Extend walks a constant's
// adjacency at the label, or probes); it reports whether ei has one.
func (m *matcher) extendFromConstants(ei int) bool {
	e := m.q.Edges[ei]
	bound, admitted := false, true
	for _, qv := range [2]int{e.From, e.To} {
		if v := m.q.Vertices[qv]; !v.IsVar() {
			m.Vertex[qv], bound = v.Const, true
			admitted = admitted && m.Admit(qv, v.Const, -1)
		}
	}
	if bound && admitted {
		m.Extend(ei)
	}
	m.Vertex[e.From], m.Vertex[e.To] = rdf.NoTerm, rdf.NoTerm
	return bound
}

func (m *matcher) emit() {
	row := m.out.Next()
	for i, v := range m.q.Vertices {
		if v.IsVar() {
			row[v.Var] = m.Vertex[i]
		}
	}
	for ev, p := range m.EdgeVar {
		if p != rdf.NoTerm {
			row[ev] = p
		}
	}
	if !m.out.Add() {
		m.Stop = true
	}
}
