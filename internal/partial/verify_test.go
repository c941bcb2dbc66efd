package partial

import (
	"fmt"

	"gstored/internal/fragment"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Verify checks a Match against the six conditions of Definition 5 plus
// the structural bookkeeping (Sign, Crossing, connectivity). It is an
// independent oracle for property tests: Compute must only emit matches
// Verify accepts. The matched edges are those matchedEdges derives.
func Verify(f *fragment.Fragment, q *query.Graph, m *Match) error {
	if len(m.Vec) != len(q.Vertices) {
		return fmt.Errorf("vector length %d != %d query vertices", len(m.Vec), len(q.Vertices))
	}
	// Sign bookkeeping first: the matched edges are derived from it.
	var sign uint64
	for i, u := range m.Vec {
		if u != rdf.NoTerm && f.IsInternal(u) {
			sign |= 1 << uint(i)
		}
	}
	if sign != m.Sign {
		return fmt.Errorf("sign %b recorded, %b computed", m.Sign, sign)
	}
	matched := matchedEdges(q, m)
	// Condition 1 (constants) and 2 (variables) on every binding.
	for i, u := range m.Vec {
		v := q.Vertices[i]
		if u == rdf.NoTerm {
			continue
		}
		if !v.IsVar() && v.Const != u {
			return fmt.Errorf("constant vertex v%d bound to %d", i+1, u)
		}
		if !f.IsInternal(u) && !f.IsExtended(u) {
			return fmt.Errorf("v%d bound to %d which is neither internal nor extended in F%d", i+1, u, f.ID)
		}
	}
	// Condition 3 per edge, plus matched-edge existence in the fragment.
	for i, e := range q.Edges {
		fu, fw := m.Vec[e.From], m.Vec[e.To]
		if matched&(1<<uint(i)) != 0 {
			if fu == rdf.NoTerm || fw == rdf.NoTerm {
				return fmt.Errorf("edge %d marked matched with NULL endpoint", i)
			}
			if e.HasVarLabel() {
				p := m.EdgeVars[e.LabelVar]
				if p == rdf.NoTerm || !f.Store.HasTriple(fu, p, fw) {
					return fmt.Errorf("edge %d: no triple %d-%d->%d in fragment", i, fu, p, fw)
				}
			} else if !f.Store.HasTriple(fu, e.Label, fw) {
				return fmt.Errorf("edge %d: no triple %d-%d->%d in fragment", i, fu, e.Label, fw)
			}
			continue
		}
		// Unmatched: requires a NULL endpoint or two extended endpoints.
		if fu != rdf.NoTerm && fw != rdf.NoTerm {
			if !(f.IsExtended(fu) && f.IsExtended(fw)) {
				return fmt.Errorf("edge %d unmatched but endpoints %d,%d not both extended", i, fu, fw)
			}
		}
	}
	// Condition 4: at least one crossing edge.
	if len(m.Crossing) == 0 {
		return fmt.Errorf("no crossing edge")
	}
	for _, c := range m.Crossing {
		if !f.IsCrossing(c.S, c.O) {
			return fmt.Errorf("recorded crossing edge %v is not crossing", c)
		}
		e := q.Edges[c.QEdge]
		if m.Vec[e.From] != c.S || m.Vec[e.To] != c.O {
			return fmt.Errorf("crossing edge %v inconsistent with vector", c)
		}
	}
	// Condition 5: internal vertices have every incident edge matched.
	for qv, u := range m.Vec {
		if u == rdf.NoTerm || !f.IsInternal(u) {
			continue
		}
		for i, e := range q.Edges {
			if (e.From == qv || e.To == qv) && matched&(1<<uint(i)) == 0 {
				return fmt.Errorf("internal v%d has unmatched incident edge %d", qv+1, i)
			}
		}
	}
	// Condition 6: internally-mapped query vertices weakly connected in Q
	// through internally-mapped vertices only.
	if err := checkInternalConnectivity(f, q, m); err != nil {
		return err
	}
	// PM subgraph connectivity (Definition 5 requires PM connected).
	if err := checkMatchedConnectivity(q, matched, m); err != nil {
		return err
	}
	return nil
}

func checkInternalConnectivity(f *fragment.Fragment, q *query.Graph, m *Match) error {
	internal := make([]bool, len(q.Vertices))
	first := -1
	count := 0
	for qv, u := range m.Vec {
		if u != rdf.NoTerm && f.IsInternal(u) {
			internal[qv] = true
			count++
			if first == -1 {
				first = qv
			}
		}
	}
	if count <= 1 {
		return nil
	}
	reached := make([]bool, len(q.Vertices))
	stack := []int{first}
	reached[first] = true
	seen := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range q.Edges {
			var w int
			switch {
			case e.From == v:
				w = e.To
			case e.To == v:
				w = e.From
			default:
				continue
			}
			if internal[w] && !reached[w] {
				reached[w] = true
				seen++
				stack = append(stack, w)
			}
		}
	}
	if seen != count {
		return fmt.Errorf("internal vertices not weakly connected through internal path (condition 6)")
	}
	return nil
}

func checkMatchedConnectivity(q *query.Graph, matched uint64, m *Match) error {
	// Vertices participating in matched edges must form one connected
	// component through matched edges, and only they are bound.
	part := make(map[int]bool)
	for i, e := range q.Edges {
		if matched&(1<<uint(i)) != 0 {
			part[e.From] = true
			part[e.To] = true
		}
	}
	if len(part) == 0 {
		return fmt.Errorf("no matched edges")
	}
	for qv, u := range m.Vec {
		if u != rdf.NoTerm && !part[qv] {
			return fmt.Errorf("v%d bound to %d but on no matched edge", qv+1, u)
		}
	}
	var first int
	for v := range part {
		first = v
		break
	}
	reached := map[int]bool{first: true}
	stack := []int{first}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i, e := range q.Edges {
			if matched&(1<<uint(i)) == 0 {
				continue
			}
			var w int
			switch {
			case e.From == v:
				w = e.To
			case e.To == v:
				w = e.From
			default:
				continue
			}
			if !reached[w] {
				reached[w] = true
				stack = append(stack, w)
			}
		}
	}
	if len(reached) != len(part) {
		return fmt.Errorf("matched subgraph disconnected")
	}
	return nil
}

// matchedEdges is the mask of query edges m matches, by the rule (see
// Match): both ends bound and at least one of their Sign bits set.
func matchedEdges(q *query.Graph, m *Match) uint64 {
	var mask uint64
	for i, e := range q.Edges {
		if m.Vec[e.From] != rdf.NoTerm && m.Vec[e.To] != rdf.NoTerm && (m.Sign>>uint(e.From)|m.Sign>>uint(e.To))&1 != 0 {
			mask |= 1 << uint(i)
		}
	}
	return mask
}
