package store

import (
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Search is the state of one backtracking search for homomorphisms of a
// query graph into a store, and the one edge step of Definition 3 that
// grows it. It decides nothing about which edge comes next or when a
// search is complete: a driver — the local matcher here, the
// partial-match enumerator of package partial — sets Admit and Next,
// calls Seed or Extend for the edge it picked, and is called back
// through Next once per way of matching that edge. Every slot a step
// binds is restored when Next returns.
type Search struct {
	st *Store
	q  *query.Graph

	// Vertex holds the data vertex bound to each query vertex, EdgeVar
	// the term bound to each query variable that labels an edge, Label
	// the label each query edge was matched with; rdf.NoTerm means
	// unbound (Vertex, EdgeVar) or unmatched (Label).
	Vertex  []rdf.TermID
	EdgeVar []rdf.TermID
	Label   []rdf.TermID

	// Admit reports whether data vertex u may be bound to query vertex
	// qv; constants are checked before it is asked. via is the query
	// edge whose matched data edge binds u, so u carries via's label in
	// via's direction by construction; -1 for a constant bound without
	// one.
	Admit func(qv int, u rdf.TermID, via int) bool
	// Next continues the search with one more edge matched.
	Next func()
	// Stop, once set by the driver, unwinds the search: no further
	// alternative is tried.
	Stop bool

	// samePair[i] lists the other query edges joining the same ordered
	// vertex pair as edge i (multi-edge injectivity, Def. 3).
	samePair [][]int
}

// NewSearch returns an empty search for q over st; the caller sets Admit
// and Next before the first step.
func NewSearch(st *Store, q *query.Graph) Search {
	s := Search{
		st:       st,
		q:        q,
		Vertex:   make([]rdf.TermID, len(q.Vertices)),
		EdgeVar:  make([]rdf.TermID, len(q.Vars)),
		Label:    make([]rdf.TermID, len(q.Edges)),
		samePair: make([][]int, len(q.Edges)),
	}
	for i, e := range q.Edges {
		for j, f := range q.Edges {
			if j != i && f.From == e.From && f.To == e.To {
				s.samePair[i] = append(s.samePair[i], j)
			}
		}
	}
	return s
}

// fixedLabel returns the label edge e must carry: its constant, or what
// its label variable is bound to — rdf.NoTerm while that is open.
func (s *Search) fixedLabel(e query.Edge) rdf.TermID {
	if e.HasVarLabel() {
		return s.EdgeVar[e.LabelVar]
	}
	return e.Label
}

// admit reports whether query vertex qv, unbound, may take data vertex u
// reached over a data edge matching query edge via.
func (s *Search) admit(qv int, u rdf.TermID, via int) bool {
	if v := s.q.Vertices[qv]; !v.IsVar() && v.Const != u {
		return false
	}
	return s.Admit(qv, u, via)
}

// Seed matches query edge ei, neither endpoint of which is bound, with
// data edge t, an edge of the store.
func (s *Search) Seed(ei int, t rdf.Triple) {
	e := s.q.Edges[ei]
	if p := s.fixedLabel(e); p != rdf.NoTerm && p != t.P {
		return
	}
	if e.From == e.To && t.S != t.O { // self-loop pattern
		return
	}
	if !s.admit(e.From, t.S, ei) || (e.From != e.To && !s.admit(e.To, t.O, ei)) {
		return
	}
	s.Vertex[e.From], s.Vertex[e.To] = t.S, t.O
	s.match(ei, t.S, t.P, t.O)
	s.Vertex[e.From], s.Vertex[e.To] = rdf.NoTerm, rdf.NoTerm
}

// Extend matches query edge ei, at least one endpoint of which is bound,
// with every distinct data edge that fits: a probe when both endpoints
// are bound, a scan of the bound endpoint's adjacency otherwise.
// Duplicate edge instances are one alternative (they bind alike); their
// multiplicity counts in match.
func (s *Search) Extend(ei int) {
	e := s.q.Edges[ei]
	u, w := s.Vertex[e.From], s.Vertex[e.To]
	p := s.fixedLabel(e)
	if u != rdf.NoTerm && w != rdf.NoTerm {
		if p != rdf.NoTerm {
			if s.st.HasTriple(u, p, w) {
				s.match(ei, u, p, w)
			}
			return
		}
		// Open label variable: each distinct label between u and w.
		adj, skip := s.st.run(u, true)
		if skip && !s.st.home(w) {
			return
		}
		for i, he := range adj {
			if he.V != w || (i > 0 && he == adj[i-1]) {
				continue
			}
			s.match(ei, u, he.P, w)
			if s.Stop {
				return
			}
		}
		return
	}
	forward := u != rdf.NoTerm
	x, free := w, e.From
	if forward {
		x, free = u, e.To
	}
	adj, skip := s.st.run(x, forward)
	adj = labelRun(adj, p)
	for i, he := range adj {
		if (i > 0 && he == adj[i-1]) || (skip && !s.st.home(he.V)) || !s.admit(free, he.V, ei) {
			continue
		}
		s.Vertex[free] = he.V
		if forward {
			s.match(ei, u, he.P, he.V)
		} else {
			s.match(ei, he.V, he.P, w)
		}
		s.Vertex[free] = rdf.NoTerm
		if s.Stop {
			return
		}
	}
}

// match records query edge ei as matched by a data edge ⟨u,p,w⟩ that
// exists, binds its label variable on first use, and continues. Query
// edges between one ordered vertex pair must map to distinct edge
// instances (Def. 3): k of them can share label p only if the multigraph
// holds at least k instances of ⟨u,p,w⟩.
func (s *Search) match(ei int, u, p, w rdf.TermID) {
	used := 0
	for _, j := range s.samePair[ei] {
		if s.Label[j] == p {
			used++
		}
	}
	if used > 0 && s.st.CountTriples(u, p, w) <= used {
		return
	}
	lv := s.q.Edges[ei].LabelVar
	bind := lv != query.NoVar && s.EdgeVar[lv] == rdf.NoTerm
	if bind {
		s.EdgeVar[lv] = p
	}
	s.Label[ei] = p
	s.Next()
	s.Label[ei] = rdf.NoTerm
	if bind {
		s.EdgeVar[lv] = rdf.NoTerm
	}
}
