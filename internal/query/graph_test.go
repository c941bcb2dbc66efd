package query

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gstored/internal/rdf"
)

// paperQuery builds the query graph of Fig. 2:
//
//	?t label ?l .  ?p1 influencedBy ?p2 .  ?p2 mainInterest ?t .
//	?p1 name "Crispin Wright"@en .
func paperQuery(t *testing.T) *Graph {
	t.Helper()
	d := rdf.NewDictionary()
	g, err := NewBuilder(d).
		Triple(Var("t"), IRI("label"), Var("l")).
		Triple(Var("p1"), IRI("influencedBy"), Var("p2")).
		Triple(Var("p2"), IRI("mainInterest"), Var("t")).
		Triple(Var("p1"), IRI("name"), Term(rdf.NewLangLiteral("Crispin Wright", "en"))).
		Select("p2", "l").
		Build()
	if err != nil {
		t.Fatalf("build paper query: %v", err)
	}
	return g
}

func TestBuilderPaperQueryShape(t *testing.T) {
	g := paperQuery(t)
	if g.NumVertices() != 5 {
		t.Errorf("vertices = %d, want 5", g.NumVertices())
	}
	if len(g.Edges) != 4 {
		t.Errorf("edges = %d, want 4", len(g.Edges))
	}
	if len(g.Vars) != 4 {
		t.Errorf("vars = %v, want 4 entries", g.Vars)
	}
	if len(g.ConnectedComponents()) > 1 {
		t.Error("paper query should be connected")
	}
	if _, star := g.StarCenter(); star {
		t.Error("paper query is not a star")
	}
	if len(g.Projection) != 2 {
		t.Errorf("projection = %v", g.Projection)
	}
}

func TestBuilderInternsVerticesAndVars(t *testing.T) {
	d := rdf.NewDictionary()
	g := NewBuilder(d).
		Triple(Var("x"), IRI("p"), Var("y")).
		Triple(Var("y"), IRI("q"), Var("x")).
		Triple(Var("x"), IRI("r"), IRI("c")).
		Triple(IRI("c"), IRI("s"), Var("z")).
		MustBuild()
	if g.NumVertices() != 4 { // x, y, c, z
		t.Fatalf("vertices = %d, want 4", g.NumVertices())
	}
	if len(g.Vars) != 3 {
		t.Fatalf("vars = %v, want 3", g.Vars)
	}
}

func TestStarCenter(t *testing.T) {
	d := rdf.NewDictionary()
	star := NewBuilder(d).
		Triple(Var("x"), IRI("p1"), Var("a")).
		Triple(Var("x"), IRI("p2"), Var("b")).
		Triple(Var("c"), IRI("p3"), Var("x")).
		MustBuild()
	c, ok := star.StarCenter()
	if !ok {
		t.Fatal("expected star")
	}
	if star.Vertices[c].Var != 0 { // ?x
		t.Errorf("center = vertex %d, want the ?x vertex", c)
	}

	single := NewBuilder(d).Triple(Var("s"), IRI("p"), Var("o")).MustBuild()
	if _, ok := single.StarCenter(); !ok {
		t.Error("single edge should be a star")
	}

	path := NewBuilder(d).
		Triple(Var("a"), IRI("p"), Var("b")).
		Triple(Var("b"), IRI("p"), Var("c")).
		Triple(Var("c"), IRI("p"), Var("d")).
		MustBuild()
	if _, ok := path.StarCenter(); ok {
		t.Error("length-3 path is not a star")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := &Graph{
		Vars:     []string{"a", "b", "c", "d"},
		Vertices: []Vertex{{Var: 0}, {Var: 1}, {Var: 2}, {Var: 3}},
		Edges: []Edge{
			{From: 0, To: 1, Label: 1},
			{From: 2, To: 3, Label: 1},
		},
	}
	comps := g.ConnectedComponents()
	want := [][]int{{0, 1}, {2, 3}}
	if !reflect.DeepEqual(comps, want) {
		t.Errorf("components = %v, want %v", comps, want)
	}
	if len(g.ConnectedComponents()) <= 1 {
		t.Error("graph with 2 components reported connected")
	}
	// Disconnected queries are legal (components evaluated separately).
	if err := g.Validate(); err != nil {
		t.Errorf("Validate rejected disconnected query: %v", err)
	}
}

func TestSplitComponents(t *testing.T) {
	d := rdf.NewDictionary()
	g := NewBuilder(d).
		Triple(Var("x"), Var("p"), Var("y")).
		Triple(Var("a"), Var("p"), Var("b")).
		MustBuild()
	comps := SplitComponents(g)
	if len(comps) != 2 {
		t.Fatalf("%d components", len(comps))
	}
	for _, c := range comps {
		if len(c.Query.ConnectedComponents()) > 1 {
			t.Error("component not connected")
		}
		if len(c.Query.Edges) != 1 || c.Query.NumVertices() != 2 {
			t.Errorf("component shape: %d vertices, %d edges", c.Query.NumVertices(), len(c.Query.Edges))
		}
		if len(c.VarMap) != len(c.Query.Vars) {
			t.Error("VarMap length mismatch")
		}
		// The shared edge variable ?p must map back to the same parent var.
		found := false
		for sub, parent := range c.VarMap {
			if c.Query.Vars[sub] == "p" && g.Vars[parent] == "p" {
				found = true
			}
		}
		if !found {
			t.Error("shared edge var ?p not mapped")
		}
	}
	// Connected query: identity single component.
	conn := NewBuilder(d).Triple(Var("x"), IRI("q"), Var("y")).MustBuild()
	cc := SplitComponents(conn)
	if len(cc) != 1 || cc[0].Query != conn {
		t.Error("connected query should return itself")
	}
}

func TestValidateErrors(t *testing.T) {
	empty := &Graph{}
	if err := empty.Validate(); err == nil {
		t.Error("empty query should be invalid")
	}
	badEdge := &Graph{
		Vars:     []string{"x"},
		Vertices: []Vertex{{Var: 0}},
		Edges:    []Edge{{From: 0, To: 5, Label: 1}},
	}
	if err := badEdge.Validate(); err == nil {
		t.Error("edge endpoint out of range should be invalid")
	}
	noLabel := &Graph{
		Vars:     []string{"x", "y"},
		Vertices: []Vertex{{Var: 0}, {Var: 1}},
		Edges:    []Edge{{From: 0, To: 1, LabelVar: NoVar}},
	}
	if err := noLabel.Validate(); err == nil {
		t.Error("edge without label should be invalid")
	}
}

// TestQueryTooLarge pins the compile-time size limit: the partial-match
// and assembly layers track vertices and edges in uint64 bitmasks, so a
// vertex or edge index beyond 63 would silently alias sign bits and
// could return wrong joins. Exactly MaxSize vertices (indices 0..63)
// still fit; one more must be rejected by Validate, i.e. at Build time.
func TestQueryTooLarge(t *testing.T) {
	chain := func(n int) (*Graph, error) {
		b := NewBuilder(rdf.NewDictionary())
		for i := 0; i < n; i++ {
			b.Triple(Var(fmt.Sprintf("v%d", i)), IRI("p"), Var(fmt.Sprintf("v%d", i+1)))
		}
		return b.Build()
	}
	// 63 triples chain 64 vertices: the largest representable query.
	if _, err := chain(MaxSize - 1); err != nil {
		t.Errorf("%d-vertex query should compile: %v", MaxSize, err)
	}
	// 64 triples chain 65 vertices: rejected at compile time.
	_, err := chain(MaxSize)
	if err == nil || !strings.Contains(err.Error(), "query too large") {
		t.Errorf("%d-vertex query: err = %v, want query-too-large", MaxSize+1, err)
	}
	// Edge count alone can also overflow: >64 parallel variable-labeled
	// edges between two vertices.
	b := NewBuilder(rdf.NewDictionary())
	for i := 0; i <= MaxSize; i++ {
		b.Triple(Var("x"), Var(fmt.Sprintf("p%d", i)), Var("y"))
	}
	_, err = b.Build()
	if err == nil || !strings.Contains(err.Error(), "query too large") {
		t.Errorf("%d-edge query: err = %v, want query-too-large", MaxSize+1, err)
	}
}

func TestBuilderErrors(t *testing.T) {
	d := rdf.NewDictionary()
	if _, err := NewBuilder(d).
		Triple(Var("x"), Term(rdf.NewLiteral("p")), Var("y")).
		Build(); err == nil {
		t.Error("literal predicate should error")
	}
	if _, err := NewBuilder(d).
		Triple(Var("x"), IRI("p"), Var("y")).
		Select("nope").
		Build(); err == nil {
		t.Error("projecting unknown variable should error")
	}
}

func TestEdgeVarsAndIncidence(t *testing.T) {
	d := rdf.NewDictionary()
	g := NewBuilder(d).
		Triple(Var("x"), Var("p"), Var("y")).
		Triple(Var("y"), Var("p"), Var("z")).
		Triple(Var("z"), IRI("q"), Var("x")).
		MustBuild()
	ev := g.EdgeVars()
	if len(ev) != 1 {
		t.Fatalf("edge vars = %v, want exactly one", ev)
	}
	inc := g.IncidentEdges()
	// ?y touches edges 0 and 1.
	if !reflect.DeepEqual(inc[1], []int{0, 1}) {
		t.Errorf("incidence of ?y = %v", inc[1])
	}
}

func TestSelfLoopIncidence(t *testing.T) {
	d := rdf.NewDictionary()
	g := NewBuilder(d).
		Triple(Var("x"), IRI("p"), Var("x")).
		MustBuild()
	if g.NumVertices() != 1 {
		t.Fatalf("self loop should produce 1 vertex, got %d", g.NumVertices())
	}
	inc := g.IncidentEdges()
	if len(inc[0]) != 1 {
		t.Errorf("self-loop listed %d times, want once", len(inc[0]))
	}
	if len(g.ConnectedComponents()) > 1 {
		t.Error("single-vertex graph should be connected")
	}
}
