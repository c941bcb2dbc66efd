package store

import (
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Through reports whether some match of q in st maps a query edge onto one
// of the triples ts. Each (triple, edge) pair whose constants agree with
// the triple is one search: the triple's ends become the edge's end
// vertices, and its predicate every label occurrence of the edge's label
// variable, so the search is anchored at constants and asks for a single
// match. A variable that is also a vertex keeps its vertex free: a match
// binds a variable's vertex and label occurrences separately (Search's
// Vertex and EdgeVar). stop is polled as each search starts, during it,
// and every 1,024 pairs; once it has reported true, Through returns false
// and the answer is unknown.
func (st *Store) Through(q *query.Graph, ts []rdf.Triple, stop func() bool) bool {
	var sub *query.Graph
	pairs := 0
	for _, t := range ts {
		for _, e := range q.Edges {
			if pairs++; pairs&0x3ff == 0 && stop() {
				return false
			}
			from, to := q.Vertices[e.From], q.Vertices[e.To]
			if (!e.HasVarLabel() && e.Label != t.P) || (!from.IsVar() && from.Const != t.S) ||
				(!to.IsVar() && to.Const != t.O) || (e.From == e.To && t.S != t.O) {
				continue
			}
			if sub == nil {
				sub = &query.Graph{Vars: q.Vars, Vertices: make([]query.Vertex, len(q.Vertices)), Edges: make([]query.Edge, len(q.Edges))}
			}
			copy(sub.Vertices, q.Vertices)
			sub.Vertices[e.From] = query.Vertex{Var: query.NoVar, Const: t.S}
			sub.Vertices[e.To] = query.Vertex{Var: query.NoVar, Const: t.O}
			for i, f := range q.Edges {
				if e.HasVarLabel() && f.LabelVar == e.LabelVar {
					f.Label, f.LabelVar = t.P, query.NoVar
				}
				sub.Edges[i] = f
			}
			if st.exists(sub, stop) {
				return true
			}
		}
	}
	return false
}

// exists reports whether q has a match in st. An edge whose label and
// ends are all constants must be present for any match, so a missing one
// answers without a search; a present one decides nothing.
func (st *Store) exists(q *query.Graph, stop func() bool) bool {
	for _, e := range q.Edges {
		from, to := q.Vertices[e.From], q.Vertices[e.To]
		if !e.HasVarLabel() && !from.IsVar() && !to.IsVar() && !st.HasTriple(from.Const, e.Label, to.Const) {
			return false
		}
	}
	found := false
	st.MatchFunc(q, MatchOptions{Cancel: stop}, func(Binding) bool {
		found = true
		return false
	})
	return found
}
