package query

import (
	"bytes"
	"cmp"
	"slices"
	"strconv"

	"gstored/internal/rdf"
)

// CanonicalKey returns a deterministic key identifying the query up to
// variable renaming and triple-pattern reordering, for use as a
// result-cache key. The key fully describes the query graph — every edge
// with its endpoint constants (by dictionary ID) and variables (by a
// canonical numbering), plus the effective projection and the solution
// modifiers (DISTINCT, LIMIT, OFFSET) — so two queries with equal keys
// are isomorphic and produce identical projected answers over the same
// database. The converse is best-effort: some
// highly symmetric reorderings may canonicalize to different keys and
// simply miss the cache.
//
// Keys embed dictionary term IDs, so they are only comparable between
// queries compiled against the same Dictionary.
//
// The canonical numbering is computed by iterative refinement: variables
// start indistinguishable, edges are sorted by their rendered form, and
// variables are renumbered by first appearance in the sorted edge list
// (subject, then predicate, then object); the renumbering changes the
// rendering, so the process repeats until the numbering reaches a
// fixpoint (or a bounded number of rounds for pathological symmetry).
// Every round renders into one reused buffer, and the key is appended to
// the same buffer, so a key costs a handful of allocations whatever the
// number of rounds.
func CanonicalKey(g *Graph) string {
	nv, ne := len(g.Vars), len(g.Edges)
	ints := make([]int, 2*nv+2*ne)
	canon, next := ints[:nv], ints[nv:2*nv]
	r := edgeRenderer{g: g, ends: ints[2*nv : 2*nv+ne], order: ints[2*nv+ne:], buf: make([]byte, 0, 48*ne+16)}
	r.render(nil)
	r.number(canon)
	for round := 0; ; round++ {
		r.render(canon)
		if round == nv {
			break
		}
		r.number(next)
		if slices.Equal(next, canon) {
			break
		}
		canon, next = next, canon
	}

	start := len(r.buf)
	for _, i := range r.order {
		r.buf = append(r.buf, r.edge(i)...)
		r.buf = append(r.buf, ';')
	}
	// Effective projection in canonical variable space. SELECT * projects
	// every variable in the graph's own order, so the order is part of the
	// key: two variants hit the same entry only when their column orders
	// agree, which keeps cached projected rows directly servable.
	r.buf = append(r.buf, "|p:"...)
	if len(g.Projection) == 0 {
		for _, c := range canon {
			r.buf = append(strconv.AppendInt(r.buf, int64(c), 10), ',')
		}
	}
	for _, v := range g.Projection {
		r.buf = append(strconv.AppendInt(r.buf, int64(canon[v]), 10), ',')
	}
	// Solution modifiers are part of the answer semantics: SELECT DISTINCT
	// and its plain twin (or two different LIMIT/OFFSET windows) must not
	// alias one cache, singleflight, or workload-log entry. Only set
	// modifiers are rendered, so unmodified queries keep their historical
	// keys; OFFSET 0 is spec-equivalent to no OFFSET and renders nothing.
	if g.Distinct {
		r.buf = append(r.buf, "|d"...)
	}
	if g.HasLimit {
		r.buf = strconv.AppendInt(append(r.buf, "|l"...), int64(g.Limit), 10)
	}
	if g.Offset > 0 {
		r.buf = strconv.AppendInt(append(r.buf, "|o"...), int64(g.Offset), 10)
	}
	return string(r.buf[start:])
}

// edgeRenderer renders a query's edges under a variable numbering, each
// as "s -p-> o", back to back into one buffer, and keeps the edges'
// order by rendering.
type edgeRenderer struct {
	g     *Graph
	buf   []byte
	ends  []int // ends[i]: where edge i's rendering ends in buf
	order []int // edge indices sorted by rendering, ties by index
}

// edge returns edge i's rendering.
func (r *edgeRenderer) edge(i int) []byte {
	if i == 0 {
		return r.buf[:r.ends[0]]
	}
	return r.buf[r.ends[i-1]:r.ends[i]]
}

// render renders every edge, constants shown as c<termID> and variables
// as v<number> under canon (plain "v" when canon is nil), and sorts
// order. Read-only-parse placeholder constants render by lexical form
// ("u<term>"): their IDs are per-parse counters, meaningless across
// queries.
func (r *edgeRenderer) render(canon []int) {
	variable := func(v int) {
		r.buf = append(r.buf, 'v')
		if canon != nil {
			r.buf = strconv.AppendInt(r.buf, int64(canon[v]), 10)
		}
	}
	constant := func(id rdf.TermID) {
		if lex, ok := r.g.Placeholders[id]; ok {
			r.buf = append(append(r.buf, 'u'), lex...)
			return
		}
		r.buf = strconv.AppendUint(append(r.buf, 'c'), uint64(id), 10)
	}
	vertex := func(i int) {
		if v := r.g.Vertices[i]; v.IsVar() {
			variable(v.Var)
		} else {
			constant(v.Const)
		}
	}
	r.buf = r.buf[:0]
	for i, e := range r.g.Edges {
		vertex(e.From)
		r.buf = append(r.buf, " -"...)
		if e.HasVarLabel() {
			variable(e.LabelVar)
		} else {
			constant(e.Label)
		}
		r.buf = append(r.buf, "-> "...)
		vertex(e.To)
		r.ends[i] = len(r.buf)
		r.order[i] = i
	}
	slices.SortFunc(r.order, func(a, b int) int {
		if c := bytes.Compare(r.edge(a), r.edge(b)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
}

// number fills canon with the variables numbered by first appearance in
// the sorted edge order. Every variable of a valid query occurs in some
// edge (vertices and label variables both come from triple patterns), so
// the numbering is total.
func (r *edgeRenderer) number(canon []int) {
	for i := range canon {
		canon[i] = -1
	}
	next := 0
	visit := func(v int) {
		if v != NoVar && canon[v] == -1 {
			canon[v] = next
			next++
		}
	}
	for _, ei := range r.order {
		e := r.g.Edges[ei]
		visit(r.g.Vertices[e.From].Var)
		visit(e.LabelVar)
		visit(r.g.Vertices[e.To].Var)
	}
	// Defensive: a variable mentioned nowhere (impossible via Builder)
	// still gets a stable number.
	for i := range canon {
		if canon[i] == -1 {
			canon[i] = next
			next++
		}
	}
}
