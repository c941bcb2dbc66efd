package store

import "gstored/internal/query"

// PlanEdge is one step of the compiled edge-evaluation order: the query
// edge evaluated at that position and its selectivity estimate against
// the global cardinality table (lower = more selective; 0 means the
// step is a pure check or provably empty).
type PlanEdge struct {
	Edge int   `json:"edge"`
	Est  int64 `json:"est"`
}

// Plan compiles the selectivity-ordered evaluation order for q against
// st's per-predicate cardinality table (Stats): most selective edge
// first, then connected expansion preferring bound endpoints. It is the
// only edge orderer. The engine plans once against the global store, so
// every fragment evaluates the same plan and the coordinator can surface
// it through EXPLAIN, and sends each site the order alone (EdgeOrder): a
// site matches in it (MatchOptions.Order) and expands partial matches by
// its inverse (partial.Options.EdgeRank). MatchFunc without an Order
// plans against its own store.
func (st *Store) Plan(q *query.Graph) []PlanEdge {
	n := len(q.Edges)
	if n == 0 {
		return nil
	}
	stats := st.Stats()
	total := int64(st.Len())
	picked := make([]bool, n)
	bound := make([]bool, len(q.Vertices))
	plan := make([]PlanEdge, 0, n)

	// estimate guesses how many bindings evaluating edge i would
	// enumerate given the currently bound vertices. Constant endpoints
	// use the constant's exact global degree; a bound variable endpoint
	// uses the predicate's average fanout (Count/Subjects forward,
	// Count/Objects backward); a seed scan uses the predicate count.
	estimate := func(i int) int64 {
		e := q.Edges[i]
		est := total + 1
		if vf := q.Vertices[e.From]; !vf.IsVar() {
			if d := int64(len(st.Adjacency(vf.Const, true, e.Label))); d < est {
				est = d
			}
		}
		if vt := q.Vertices[e.To]; !vt.IsVar() {
			if d := int64(len(st.Adjacency(vt.Const, false, e.Label))); d < est {
				est = d
			}
		}
		if est <= total {
			return est
		}
		if e.HasVarLabel() {
			// Unconstrained label: fanout over every predicate.
			if bound[e.From] || bound[e.To] {
				return avgFanout(stats.Triples(), st.NumVertices())
			}
			return total
		}
		ps, ok := stats.Pred(e.Label)
		if !ok {
			return 0 // predicate absent from the data: provably empty
		}
		switch {
		case bound[e.From] && bound[e.To]:
			return 1
		case bound[e.From]:
			return avgFanout(ps.Count, ps.Subjects)
		case bound[e.To]:
			return avgFanout(ps.Count, ps.Objects)
		default:
			return int64(ps.Count)
		}
	}

	for len(plan) < n {
		best, bestScore := -1, int64(-1)
		var bestEst int64
		for i := 0; i < n; i++ {
			if picked[i] {
				continue
			}
			e := q.Edges[i]
			if len(plan) > 0 && !bound[e.From] && !bound[e.To] {
				continue // keep the order connected
			}
			est := estimate(i)
			// Both endpoints already bound: a pure existence check, always
			// cheapest. Variable labels go last.
			score := est + 1
			switch {
			case len(plan) > 0 && bound[e.From] && bound[e.To]:
				score = 0
			case e.HasVarLabel():
				score = 2*total + 2
			}
			if best == -1 || score < bestScore {
				best, bestScore, bestEst = i, score, est
			}
		}
		if best == -1 { // disconnected query: start a fresh component
			for i := 0; i < n; i++ {
				if !picked[i] {
					best, bestEst = i, estimate(i)
					break
				}
			}
		}
		picked[best] = true
		plan = append(plan, PlanEdge{Edge: best, Est: bestEst})
		bound[q.Edges[best].From] = true
		bound[q.Edges[best].To] = true
	}
	return plan
}

// avgFanout returns ceil(count/sources), clamped to at least 1 when the
// predicate has any triples.
func avgFanout(count, sources int) int64 {
	if count <= 0 {
		return 0
	}
	if sources <= 0 {
		return int64(count)
	}
	return int64((count + sources - 1) / sources)
}

// EdgeOrder extracts the evaluation order as edge indices, the form
// MatchOptions.Order takes.
func EdgeOrder(plan []PlanEdge) []int {
	order := make([]int, len(plan))
	for k, pe := range plan {
		order[k] = pe.Edge
	}
	return order
}
