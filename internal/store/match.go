package store

import (
	"sync/atomic"
	"time"

	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Binding is one homomorphism from a query graph into the store (Def. 3).
type Binding struct {
	// Vertices maps each query vertex index to its data vertex.
	Vertices []rdf.TermID
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
	// Limit stops enumeration after this many matches (0 = unlimited).
	Limit int
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
	// then be called from multiple goroutines. Limit still bounds the
	// global emission count and Cancel stops all workers. Orders that
	// re-seed mid-way (disconnected patterns) run sequentially: chunked
	// workers would each re-enumerate the later components in full.
	Pool *pool.Pool
	// OnTask, when non-nil, receives the wall time of each evaluation
	// task (one per seed chunk; exactly one for a sequential run). It
	// may be called concurrently.
	OnTask func(d time.Duration)
}

// Match enumerates all matches of q.
func (st *Store) Match(q *query.Graph) []Binding {
	var out []Binding
	st.MatchFunc(q, MatchOptions{}, func(b Binding) bool {
		out = append(out, b)
		return true
	})
	return out
}

// MatchFunc enumerates matches of q, invoking yield for each; enumeration
// stops when yield returns false or opts.Limit is reached. The Binding
// passed to yield is freshly allocated and may be retained.
func (st *Store) MatchFunc(q *query.Graph, opts MatchOptions, yield func(Binding) bool) {
	if len(q.Edges) == 0 {
		return
	}
	order := opts.Order
	if !validOrder(order, len(q.Edges)) {
		order = EdgeOrder(st.Plan(q))
	}
	if opts.Pool.Workers() > 1 && connectedOrder(q, order) {
		st.matchParallel(q, opts, order, yield)
		return
	}
	if opts.OnTask != nil {
		start := time.Now()
		defer func() { opts.OnTask(time.Since(start)) }()
	}
	m := &matcher{
		st:   st,
		q:    q,
		opts: opts,
		vb:   make([]rdf.TermID, len(q.Vertices)),
		evb:  make([]rdf.TermID, len(q.Vars)),
		lab:  make([]rdf.TermID, len(q.Edges)),
	}
	m.order = order
	m.sameGroup = samePairGroups(q, m.order)
	m.yield = yield
	m.step(0)
}

// validOrder reports whether order is a permutation of [0, n).
func validOrder(order []int, n int) bool {
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

// matchParallel runs the backtracking search with the first edge's seed
// domain — TriplesWith(label) for a constant label, the vertex set for
// a variable one — split into contiguous chunks, each enumerated by an
// independent matcher on the pool. Every seed is owned by exactly one
// chunk, so the union of chunk emissions equals the sequential result
// multiset; emission order across chunks is unspecified.
func (st *Store) matchParallel(q *query.Graph, opts MatchOptions, order []int, yield func(Binding) bool) {
	e0 := q.Edges[order[0]]
	var seedT []rdf.Triple
	var seedV []rdf.TermID
	if e0.HasVarLabel() {
		seedV = st.vertices
	} else {
		seedT = st.TriplesWith(e0.Label)
	}
	n := len(seedT) + len(seedV)
	chunks := pool.Chunks(n, 4*opts.Pool.Workers())
	if len(chunks) == 0 {
		return
	}
	sameGroup := samePairGroups(q, order)
	var stop atomic.Bool
	var emitted atomic.Int64
	limit := int64(opts.Limit)
	cancel := opts.Cancel
	poll := func() bool { return stop.Load() || (cancel != nil && cancel()) }
	// wrapped applies Limit across workers: Add returns a unique rank, so
	// exactly Limit bindings pass even under concurrent emission.
	wrapped := func(b Binding) bool {
		if limit > 0 {
			rank := emitted.Add(1)
			if rank > limit {
				stop.Store(true)
				return false
			}
			if !yield(b) || rank == limit {
				stop.Store(true)
				return false
			}
			return true
		}
		if !yield(b) {
			stop.Store(true)
			return false
		}
		return true
	}
	tasks := make([]func(), len(chunks))
	for i, ch := range chunks {
		tasks[i] = func() {
			if stop.Load() {
				return
			}
			var start time.Time
			if opts.OnTask != nil {
				start = time.Now()
			}
			m := &matcher{
				st:        st,
				q:         q,
				opts:      MatchOptions{VertexFilter: opts.VertexFilter, Cancel: poll},
				order:     order,
				vb:        make([]rdf.TermID, len(q.Vertices)),
				evb:       make([]rdf.TermID, len(q.Vars)),
				lab:       make([]rdf.TermID, len(q.Edges)),
				sameGroup: sameGroup,
				yield:     wrapped,
			}
			if seedT != nil {
				m.seedT = seedT[ch[0]:ch[1]]
			} else {
				m.seedV = seedV[ch[0]:ch[1]]
			}
			m.step(0)
			if opts.OnTask != nil {
				opts.OnTask(time.Since(start))
			}
		}
	}
	opts.Pool.Do(tasks...)
}

type matcher struct {
	st    *Store
	q     *query.Graph
	opts  MatchOptions
	order []int        // edge evaluation order (indices into q.Edges)
	vb    []rdf.TermID // vertex bindings (NoTerm = unbound)
	evb   []rdf.TermID // edge-label variable bindings
	lab   []rdf.TermID // concrete label assigned to each query edge
	// sameGroup[k] lists positions before k in order whose edges connect
	// the same ordered query-vertex pair (multi-edge injectivity, Def. 3).
	sameGroup [][]int
	yield     func(Binding) bool
	emitted   int
	steps     uint
	stopped   bool
	// seedT/seedV, when set, replace the first extendSeed's enumeration
	// domain with one contiguous chunk of it (parallel evaluation).
	seedT []rdf.Triple
	seedV []rdf.TermID
}

// samePairGroups precomputes, per order position, the earlier positions
// whose edges join the same ordered query-vertex pair.
func samePairGroups(q *query.Graph, order []int) [][]int {
	groups := make([][]int, len(order))
	for k, ei := range order {
		e := q.Edges[ei]
		for j := 0; j < k; j++ {
			f := q.Edges[order[j]]
			if f.From == e.From && f.To == e.To {
				groups[k] = append(groups[k], j)
			}
		}
	}
	return groups
}

func (m *matcher) step(k int) {
	if m.stopped {
		return
	}
	if m.opts.Cancel != nil {
		// Poll every 256 steps: cheap enough for the hot path, prompt
		// enough for timeouts.
		if m.steps&0xff == 0 && m.opts.Cancel() {
			m.stopped = true
			return
		}
		m.steps++
	}
	if k == len(m.order) {
		m.emit()
		return
	}
	ei := m.order[k]
	e := m.q.Edges[ei]
	u, w := m.vb[e.From], m.vb[e.To]

	fixed := rdf.NoTerm // concrete label this edge must carry, if known
	if e.HasVarLabel() {
		fixed = m.evb[e.LabelVar]
	} else {
		fixed = e.Label
	}

	switch {
	case u != rdf.NoTerm && w != rdf.NoTerm:
		m.extendBothBound(k, e, u, w, fixed)
	case u != rdf.NoTerm:
		m.extendForward(k, e, u, fixed)
	case w != rdf.NoTerm:
		m.extendBackward(k, e, w, fixed)
	default:
		m.extendSeed(k, e, fixed)
	}
}

// assignLabel records the label for edge position k, binding the label
// variable if this is its first use. It returns a restore func, or false if
// the multi-edge injectivity budget between (u,w) is exhausted.
func (m *matcher) assignLabel(k int, e query.Edge, u, w, p rdf.TermID) (func(), bool) {
	// Injectivity: count earlier same-pair edges that chose label p; the
	// multigraph must have more instances than that.
	usedSame := 0
	for _, j := range m.sameGroup[k] {
		if m.lab[m.order[j]] == p {
			usedSame++
		}
	}
	if usedSame > 0 && m.st.CountTriples(u, p, w) <= usedSame {
		return nil, false
	}
	m.lab[m.order[k]] = p
	var boundVar bool
	if e.HasVarLabel() && m.evb[e.LabelVar] == rdf.NoTerm {
		m.evb[e.LabelVar] = p
		boundVar = true
	}
	lv := e.LabelVar
	return func() {
		m.lab[m.order[k]] = rdf.NoTerm
		if boundVar {
			m.evb[lv] = rdf.NoTerm
		}
	}, true
}

func (m *matcher) bindVertex(qv int, u rdf.TermID) (func(), bool) {
	if !m.st.CheckVertex(m.q, qv, u) {
		return nil, false
	}
	if m.opts.VertexFilter != nil && !m.opts.VertexFilter(qv, u) {
		return nil, false
	}
	m.vb[qv] = u
	return func() { m.vb[qv] = rdf.NoTerm }, true
}

func (m *matcher) extendBothBound(k int, e query.Edge, u, w, fixed rdf.TermID) {
	if fixed != rdf.NoTerm {
		if !m.st.HasTriple(u, fixed, w) {
			return
		}
		undo, ok := m.assignLabel(k, e, u, w, fixed)
		if !ok {
			return
		}
		m.step(k + 1)
		undo()
		return
	}
	// Unbound label variable: try each distinct label between u and w.
	var prev rdf.TermID
	for _, he := range m.st.Out(u) {
		if he.V != w || he.P == prev {
			continue
		}
		prev = he.P
		undo, ok := m.assignLabel(k, e, u, w, he.P)
		if !ok {
			continue
		}
		m.step(k + 1)
		undo()
		if m.stopped {
			return
		}
	}
}

func (m *matcher) extendForward(k int, e query.Edge, u, fixed rdf.TermID) {
	adj := m.st.Out(u)
	if fixed != rdf.NoTerm {
		adj = m.st.OutWith(u, fixed)
	}
	var prev HalfEdge
	for i, he := range adj {
		// Duplicate instances yield identical bindings; multiplicity is
		// honored by assignLabel via CountTriples.
		if i > 0 && he == prev {
			continue
		}
		prev = he
		undoV, ok := m.bindVertex(e.To, he.V)
		if !ok {
			continue
		}
		undoL, ok := m.assignLabel(k, e, u, he.V, he.P)
		if ok {
			m.step(k + 1)
			undoL()
		}
		undoV()
		if m.stopped {
			return
		}
	}
}

func (m *matcher) extendBackward(k int, e query.Edge, w, fixed rdf.TermID) {
	adj := m.st.In(w)
	if fixed != rdf.NoTerm {
		adj = m.st.InWith(w, fixed)
	}
	var prev HalfEdge
	for i, he := range adj {
		if i > 0 && he == prev {
			continue
		}
		prev = he
		undoV, ok := m.bindVertex(e.From, he.V)
		if !ok {
			continue
		}
		undoL, ok := m.assignLabel(k, e, he.V, w, he.P)
		if ok {
			m.step(k + 1)
			undoL()
		}
		undoV()
		if m.stopped {
			return
		}
	}
}

// extendSeed handles an edge with neither endpoint bound (the first edge,
// or the first edge of a new component for disconnected patterns).
func (m *matcher) extendSeed(k int, e query.Edge, fixed rdf.TermID) {
	seedOne := func(t rdf.Triple) {
		undoU, ok := m.bindVertex(e.From, t.S)
		if !ok {
			return
		}
		// Self-loop pattern: From == To requires S == O.
		if e.From == e.To && t.S != t.O {
			undoU()
			return
		}
		var undoW func()
		if e.From != e.To {
			undoW, ok = m.bindVertex(e.To, t.O)
			if !ok {
				undoU()
				return
			}
		}
		undoL, ok := m.assignLabel(k, e, t.S, t.O, t.P)
		if ok {
			m.step(k + 1)
			undoL()
		}
		if undoW != nil {
			undoW()
		}
		undoU()
	}
	if m.seedT != nil || m.seedV != nil {
		// Parallel chunk: this matcher owns one contiguous slice of the
		// first edge's seed domain (connected orders seed exactly once,
		// so this branch runs at most once per matcher).
		ts, vs := m.seedT, m.seedV
		m.seedT, m.seedV = nil, nil
		if ts != nil {
			for _, t := range ts {
				seedOne(t)
				if m.stopped {
					return
				}
			}
			return
		}
		for _, s := range vs {
			var prev HalfEdge
			for i, he := range m.st.Out(s) {
				if i > 0 && he == prev {
					continue
				}
				prev = he
				seedOne(rdf.Triple{S: s, P: he.P, O: he.V})
				if m.stopped {
					return
				}
			}
		}
		return
	}
	if fixed != rdf.NoTerm {
		for _, t := range m.st.TriplesWith(fixed) {
			seedOne(t)
			if m.stopped {
				return
			}
		}
		return
	}
	for _, s := range m.st.vertices {
		var prev HalfEdge
		for i, he := range m.st.Out(s) {
			if i > 0 && he == prev {
				continue
			}
			prev = he
			seedOne(rdf.Triple{S: s, P: he.P, O: he.V})
			if m.stopped {
				return
			}
		}
	}
}

func (m *matcher) emit() {
	b := Binding{
		Vertices: append([]rdf.TermID(nil), m.vb...),
		Vars:     make([]rdf.TermID, len(m.q.Vars)),
	}
	for i, v := range m.q.Vertices {
		if v.IsVar() {
			b.Vars[v.Var] = m.vb[i]
		}
	}
	for _, ev := range m.q.EdgeVars() {
		b.Vars[ev] = m.evb[ev]
	}
	if !m.yield(b) {
		m.stopped = true
		return
	}
	m.emitted++
	if m.opts.Limit > 0 && m.emitted >= m.opts.Limit {
		m.stopped = true
	}
}
