// Package query models SPARQL basic graph patterns as query graphs
// (Definition 2 of the paper): vertices are constants or variables, edges
// carry a predicate that is a constant or a variable.
//
// Vertex order inside a Graph is significant — serialization vectors, LEC
// signature bit positions and result columns all use it.
package query

import (
	"fmt"
	"strings"

	"gstored/internal/rdf"
)

// NoVar marks a constant vertex or a constant edge label.
const NoVar = -1

// MaxSize bounds query vertices and edges. The partial-match and
// assembly layers track per-vertex signature bits and per-edge matched
// bits in uint64 bitmasks, so a vertex or edge index of 64 or more would
// silently alias bit positions and could join incompatible partial
// matches. Validate rejects oversized graphs at compile time; 64
// vertices exactly (indices 0..63) still fit.
const MaxSize = 64

// Vertex is one query vertex: either a variable (Var >= 0, an index into
// Graph.Vars) or a constant term (Var == NoVar, Const holds the term).
type Vertex struct {
	Var   int
	Const rdf.TermID
}

// IsVar reports whether the vertex is a variable.
func (v Vertex) IsVar() bool { return v.Var != NoVar }

// Edge is one directed query edge (triple pattern): From --Label--> To,
// where From/To index Graph.Vertices. A variable predicate has
// LabelVar >= 0 (an index into Graph.Vars) and Label == rdf.NoTerm, a
// constant one LabelVar == NoVar; Validate holds every edge to one of the
// two, so Label is rdf.NoTerm exactly when the predicate is a variable.
type Edge struct {
	From, To int
	Label    rdf.TermID
	LabelVar int
}

// HasVarLabel reports whether the edge predicate is a variable.
func (e Edge) HasVarLabel() bool { return e.LabelVar != NoVar }

// Graph is a SPARQL BGP query graph.
type Graph struct {
	// Vars holds variable names (without the '?') in first-seen order;
	// vertex variables and edge-label variables share this namespace.
	Vars []string
	// Vertices are the query vertices v_0 .. v_{n-1}.
	Vertices []Vertex
	// Edges are the triple patterns.
	Edges []Edge
	// Projection lists the variable indices returned by SELECT; empty
	// means SELECT * (all variables).
	Projection []int
	// Placeholders maps read-only-parse placeholder IDs (constants the
	// dictionary has not seen; they match nothing) to their lexical
	// forms. Placeholder IDs are assigned per parse by countdown, so the
	// ID alone does not identify the term across queries — CanonicalKey
	// renders these constants by lexical form instead. Nil when every
	// constant resolved through the dictionary.
	Placeholders map[rdf.TermID]string

	// Solution modifiers (SPARQL 1.1 §15). They change the answer a query
	// produces, so CanonicalKey embeds them: a modified query and its
	// plain twin must never share a cache, singleflight, or workload-log
	// entry. The zero value — no DISTINCT, no LIMIT, OFFSET 0 — is an
	// unmodified query, which keeps component sub-queries built by
	// SplitComponents modifier-free.

	// Distinct deduplicates the projected rows (SELECT DISTINCT): the
	// answer is a set, not a multiset. SELECT REDUCED parses as a no-op —
	// the spec permits returning the unreduced multiset.
	Distinct bool
	// Limit caps the number of solutions returned after Offset is
	// applied; meaningful only when HasLimit (LIMIT 0 is legal and yields
	// no solutions, so presence needs its own flag).
	Limit int
	// HasLimit records that a LIMIT clause was given.
	HasLimit bool
	// Offset skips the first Offset solutions (0 = none; OFFSET 0 is
	// equivalent to no OFFSET clause).
	Offset int
}

// NumVertices returns |V(Q)|.
func (g *Graph) NumVertices() int { return len(g.Vertices) }

// EdgeVars returns the distinct variable indices used as edge labels, in
// first-use order.
func (g *Graph) EdgeVars() []int {
	seen := make(map[int]bool)
	var out []int
	for _, e := range g.Edges {
		if e.HasVarLabel() && !seen[e.LabelVar] {
			seen[e.LabelVar] = true
			out = append(out, e.LabelVar)
		}
	}
	return out
}

// IncidentEdges returns, for each vertex, the indices of edges touching it
// (self-loops appear once).
func (g *Graph) IncidentEdges() [][]int {
	inc := make([][]int, len(g.Vertices))
	for i, e := range g.Edges {
		inc[e.From] = append(inc[e.From], i)
		if e.To != e.From {
			inc[e.To] = append(inc[e.To], i)
		}
	}
	return inc
}

// ConnectedComponents returns the vertex sets of the weakly connected
// components, each sorted ascending, ordered by smallest member.
func (g *Graph) ConnectedComponents() [][]int {
	n := len(g.Vertices)
	if n == 0 {
		return nil
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		a, b := find(e.From), find(e.To)
		if a != b {
			parent[a] = b
		}
	}
	groups := make(map[int][]int)
	for i := 0; i < n; i++ {
		r := find(i)
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(groups))
	for i := 0; i < n; i++ {
		if find(i) == i {
			out = append(out, groups[i])
		}
	}
	return out
}

// StarCenter returns the index of a vertex incident to every edge, if one
// exists, and whether the query is a star. Single-edge queries are stars
// (either endpoint qualifies; From is returned). The empty query is not a
// star.
func (g *Graph) StarCenter() (int, bool) {
	if len(g.Edges) == 0 {
		return 0, false
	}
	try := func(c int) bool {
		for _, e := range g.Edges {
			if e.From != c && e.To != c {
				return false
			}
		}
		return true
	}
	if try(g.Edges[0].From) {
		return g.Edges[0].From, true
	}
	if try(g.Edges[0].To) {
		return g.Edges[0].To, true
	}
	return 0, false
}

// Validate checks structural invariants: edge endpoints and variable
// indices in range, connectivity, and at least one triple pattern.
func (g *Graph) Validate() error {
	if len(g.Edges) == 0 {
		return fmt.Errorf("query: no triple patterns")
	}
	if len(g.Vertices) > MaxSize || len(g.Edges) > MaxSize {
		return fmt.Errorf("query too large: %d vertices and %d edges exceed the %d-vertex/%d-edge limit",
			len(g.Vertices), len(g.Edges), MaxSize, MaxSize)
	}
	for i, v := range g.Vertices {
		if v.Var != NoVar && (v.Var < 0 || v.Var >= len(g.Vars)) {
			return fmt.Errorf("query: vertex %d has out-of-range variable %d", i, v.Var)
		}
		if v.Var == NoVar && v.Const == rdf.NoTerm {
			return fmt.Errorf("query: vertex %d is constant but has no term", i)
		}
	}
	for i, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Vertices) || e.To < 0 || e.To >= len(g.Vertices) {
			return fmt.Errorf("query: edge %d endpoint out of range", i)
		}
		if e.LabelVar != NoVar && (e.LabelVar < 0 || e.LabelVar >= len(g.Vars)) {
			return fmt.Errorf("query: edge %d has out-of-range label variable %d", i, e.LabelVar)
		}
		if (e.LabelVar == NoVar) == (e.Label == rdf.NoTerm) {
			return fmt.Errorf("query: edge %d needs exactly one of a label and a label variable", i)
		}
	}
	for _, p := range g.Projection {
		if p < 0 || p >= len(g.Vars) {
			return fmt.Errorf("query: projection references out-of-range variable %d", p)
		}
	}
	if g.HasLimit && g.Limit < 0 {
		return fmt.Errorf("query: negative LIMIT %d", g.Limit)
	}
	if g.Offset < 0 {
		return fmt.Errorf("query: negative OFFSET %d", g.Offset)
	}
	// Disconnected queries are legal: the engine evaluates each weakly
	// connected component separately and recombines by cross product
	// (Section II-A).
	return nil
}

// String renders a compact human-readable form, e.g.
// "?p1 --influencedBy--> ?p2" per edge, for diagnostics.
func (g *Graph) String() string {
	var b strings.Builder
	for i, e := range g.Edges {
		if i > 0 {
			b.WriteString(" . ")
		}
		b.WriteString(g.vertexName(e.From))
		b.WriteString(" --")
		if e.HasVarLabel() {
			b.WriteString("?" + g.Vars[e.LabelVar])
		} else {
			fmt.Fprintf(&b, "t%d", e.Label)
		}
		b.WriteString("--> ")
		b.WriteString(g.vertexName(e.To))
	}
	return b.String()
}

// EdgeString renders a single edge in the same compact form String
// uses, for per-step diagnostics such as the EXPLAIN evaluation order.
func (g *Graph) EdgeString(i int) string {
	e := g.Edges[i]
	label := fmt.Sprintf("t%d", e.Label)
	if e.HasVarLabel() {
		label = "?" + g.Vars[e.LabelVar]
	}
	return g.vertexName(e.From) + " --" + label + "--> " + g.vertexName(e.To)
}

func (g *Graph) vertexName(i int) string {
	v := g.Vertices[i]
	if v.IsVar() {
		return "?" + g.Vars[v.Var]
	}
	return fmt.Sprintf("t%d", v.Const)
}
