package sparql

import (
	"strings"
	"testing"

	"gstored/internal/query"
	"gstored/internal/rdf"
)

// The paper's Section I example query, verbatim modulo whitespace.
const paperQuerySrc = `
SELECT ?p2 ?l WHERE {
  ?t <label> ?l .
  ?p1 <influencedBy> ?p2 .
  ?p2 <mainInterest> ?t .
  ?p1 <name> "Crispin Wright"@en .
}`

func TestParsePaperQuery(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(paperQuerySrc, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices / %d edges, want 5 / 4 (Fig. 2)", g.NumVertices(), g.NumEdges())
	}
	if len(g.Projection) != 2 {
		t.Fatalf("projection = %v, want 2 vars", g.Projection)
	}
	if g.Vars[g.Projection[0]] != "p2" || g.Vars[g.Projection[1]] != "l" {
		t.Errorf("projection names = %q, %q", g.Vars[g.Projection[0]], g.Vars[g.Projection[1]])
	}
	// The constant vertex "Crispin Wright"@en must exist.
	found := false
	for _, v := range g.Vertices {
		if !v.IsVar() {
			term, _ := d.Decode(v.Const)
			if term == rdf.NewLangLiteral("Crispin Wright", "en") {
				found = true
			}
		}
	}
	if !found {
		t.Error("constant literal vertex missing")
	}
}

func TestParsePrefixes(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX ex: <http://example.org/>
SELECT ?n WHERE { ?x foaf:name ?n . ?x a ex:Person . }`, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	wantPred, _ := d.Lookup(rdf.NewIRI("http://xmlns.com/foaf/0.1/name"))
	if g.Edges[0].Label != wantPred {
		t.Error("foaf:name did not expand correctly")
	}
	wantType, _ := d.Lookup(rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"))
	if g.Edges[1].Label != wantType {
		t.Error("'a' did not expand to rdf:type")
	}
	wantClass, _ := d.Lookup(rdf.NewIRI("http://example.org/Person"))
	if g.Vertices[g.Edges[1].To].Const != wantClass {
		t.Error("ex:Person object did not expand")
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT * WHERE {
		?x <p> ?a ; <q> ?b , ?c .
		?y <r> ?x
	}`, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", g.NumEdges())
	}
	// SELECT * ⇒ empty projection (all vars).
	if len(g.Projection) != 0 {
		t.Errorf("projection = %v, want empty for SELECT *", g.Projection)
	}
	// Edges 0,1,2 share subject ?x.
	if g.Edges[0].From != g.Edges[1].From || g.Edges[1].From != g.Edges[2].From {
		t.Error("';' list did not share subject")
	}
	if g.Edges[1].Label != g.Edges[2].Label {
		t.Error("',' list did not share predicate")
	}
}

func TestParseVariablePredicate(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT ?p WHERE { <http://s> ?p ?o . ?o ?p <http://z> }`, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !g.Edges[0].HasVarLabel() || !g.Edges[1].HasVarLabel() {
		t.Fatal("variable predicates not recognized")
	}
	if g.Edges[0].LabelVar != g.Edges[1].LabelVar {
		t.Error("shared predicate variable got two indices")
	}
}

func TestParseNumericLiterals(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT ?x WHERE { ?x <age> 42 . ?x <height> 1.75 }`, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	obj0, _ := d.Decode(g.Vertices[g.Edges[0].To].Const)
	if obj0 != rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer") {
		t.Errorf("integer literal = %#v", obj0)
	}
	obj1, _ := d.Decode(g.Vertices[g.Edges[1].To].Const)
	if obj1 != rdf.NewTypedLiteral("1.75", "http://www.w3.org/2001/XMLSchema#decimal") {
		t.Errorf("decimal literal = %#v", obj1)
	}
}

// TestParseDistinct pins the headline bug: the parser used to accept
// DISTINCT and then drop the flag on the floor, so clients silently got
// the duplicate-bearing multiset. REDUCED stays a spec-legal no-op.
func TestParseDistinct(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT DISTINCT ?x WHERE { ?x <p> ?y }`, d)
	if err != nil {
		t.Fatalf("Parse DISTINCT: %v", err)
	}
	if !g.Distinct {
		t.Error("DISTINCT not propagated to Graph.Distinct")
	}
	g, err = Parse(`SELECT REDUCED ?x WHERE { ?x <p> ?y }`, d)
	if err != nil {
		t.Fatalf("Parse REDUCED: %v", err)
	}
	if g.Distinct {
		t.Error("REDUCED must not set Distinct (returning the multiset is conformant)")
	}
	g, err = Parse(`SELECT ?x WHERE { ?x <p> ?y }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if g.Distinct || g.HasLimit || g.Offset != 0 {
		t.Errorf("plain SELECT carries modifiers: %+v", g)
	}
}

func TestParseLimitOffset(t *testing.T) {
	d := rdf.NewDictionary()
	cases := []struct {
		src          string
		wantHasLimit bool
		wantLimit    int
		wantOffset   int
		wantDistinct bool
	}{
		{`SELECT ?x WHERE { ?x <p> ?y } LIMIT 10`, true, 10, 0, false},
		{`SELECT ?x WHERE { ?x <p> ?y } OFFSET 5`, false, 0, 5, false},
		{`SELECT ?x WHERE { ?x <p> ?y } LIMIT 10 OFFSET 5`, true, 10, 5, false},
		// The SPARQL grammar allows either order.
		{`SELECT ?x WHERE { ?x <p> ?y } OFFSET 5 LIMIT 10`, true, 10, 5, false},
		{`SELECT ?x WHERE { ?x <p> ?y } LIMIT 0`, true, 0, 0, false},
		{`SELECT DISTINCT ?x WHERE { ?x <p> ?y } limit 3 offset 1`, true, 3, 1, true},
	}
	for _, c := range cases {
		g, err := Parse(c.src, d)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if g.HasLimit != c.wantHasLimit || g.Limit != c.wantLimit || g.Offset != c.wantOffset || g.Distinct != c.wantDistinct {
			t.Errorf("Parse(%q): hasLimit=%v limit=%d offset=%d distinct=%v, want %v/%d/%d/%v",
				c.src, g.HasLimit, g.Limit, g.Offset, g.Distinct,
				c.wantHasLimit, c.wantLimit, c.wantOffset, c.wantDistinct)
		}
	}
}

func TestParseLimitOffsetErrors(t *testing.T) {
	d := rdf.NewDictionary()
	cases := []struct{ name, src string }{
		{"negative limit", `SELECT ?x WHERE { ?x <p> ?y } LIMIT -1`},
		{"negative offset", `SELECT ?x WHERE { ?x <p> ?y } OFFSET -2`},
		{"signed limit", `SELECT ?x WHERE { ?x <p> ?y } LIMIT +5`},
		{"decimal limit", `SELECT ?x WHERE { ?x <p> ?y } LIMIT 1.5`},
		{"missing limit value", `SELECT ?x WHERE { ?x <p> ?y } LIMIT`},
		{"non-numeric limit", `SELECT ?x WHERE { ?x <p> ?y } LIMIT ten`},
		{"duplicate limit", `SELECT ?x WHERE { ?x <p> ?y } LIMIT 1 LIMIT 2`},
		{"duplicate offset", `SELECT ?x WHERE { ?x <p> ?y } OFFSET 1 OFFSET 2`},
		{"duplicate limit split", `SELECT ?x WHERE { ?x <p> ?y } LIMIT 1 OFFSET 2 LIMIT 3`},
		{"trailing garbage after modifiers", `SELECT ?x WHERE { ?x <p> ?y } LIMIT 1 extra`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src, d); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseComments(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`# leading comment
SELECT ?x WHERE {
  ?x <p> ?y . # trailing comment
}`, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d", g.NumEdges())
	}
}

func TestParseErrors(t *testing.T) {
	d := rdf.NewDictionary()
	cases := []struct{ name, src string }{
		{"missing select", `WHERE { ?x <p> ?y }`},
		{"missing brace", `SELECT ?x WHERE ?x <p> ?y`},
		{"unterminated brace", `SELECT ?x WHERE { ?x <p> ?y`},
		{"undeclared prefix", `SELECT ?x WHERE { ?x foaf:name ?y }`},
		{"trailing garbage", `SELECT ?x WHERE { ?x <p> ?y } extra`},
		{"unterminated iri", `SELECT ?x WHERE { ?x <p ?y }`},
		{"unterminated literal", `SELECT ?x WHERE { ?x <p> "oops }`},
		{"empty var", `SELECT ? WHERE { ?x <p> ?y }`},
		{"literal predicate", `SELECT ?x WHERE { ?x "p" ?y }`},
		{"select unknown var", `SELECT ?zz WHERE { ?x <p> ?y }`},
		{"base unsupported", `BASE <http://b/> SELECT ?x WHERE { ?x <p> ?y }`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src, d); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

// TestParseBracketedDatatype: a datatype written <bracketed> is an IRI
// whatever its scheme — neither an undeclared prefix nor rewritten by a
// PREFIX that happens to share its scheme's name.
func TestParseBracketedDatatype(t *testing.T) {
	for _, prologue := range []string{"", "PREFIX urn: <http://evil/>\n"} {
		d := rdf.NewDictionary()
		g, err := Parse(prologue+`SELECT ?x WHERE { ?x <p> "5"^^<urn:ex:int> }`, d)
		if err != nil {
			t.Fatalf("prologue %q: %v", prologue, err)
		}
		obj, _ := d.Decode(g.Vertices[g.Edges[0].To].Const)
		if want := rdf.NewTypedLiteral("5", "urn:ex:int"); obj != want {
			t.Errorf("prologue %q: object = %v, want %v", prologue, obj, want)
		}
	}
}

// TestParseRejectsBlankNodes: a blank node in a pattern would otherwise
// match one stored blank node by label, not act as a variable.
func TestParseRejectsBlankNodes(t *testing.T) {
	src := `SELECT ?s WHERE { ?s <p> _:b0 }`
	_, err := Parse(src, rdf.NewDictionary())
	se, ok := err.(*SyntaxError)
	if !ok || se.Pos != strings.Index(src, "_:") || !strings.Contains(se.Msg, "use a variable") {
		t.Errorf("Parse(%q) = %v, want a syntax error at the blank node", src, err)
	}
}

func TestParseEscapedLiteral(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT ?x WHERE { ?x <says> "he said \"hi\"\n" }`, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	obj, _ := d.Decode(g.Vertices[g.Edges[0].To].Const)
	if obj.Value != "he said \"hi\"\n" {
		t.Errorf("literal = %q", obj.Value)
	}
}

// TestParseAllocs pins the parse path's allocations: the LQ5-shaped read
// the serve_mix benchmark issues 150 times a pass (read-only, against a
// dictionary that knows its constants) and the benchmark's 8-triple
// INSERT DATA. The counts rely on prefixed names skipping the keyword
// upper-casing, on literals without escapes being substrings of the
// source, and on the triple callbacks copying nothing to the heap.
func TestParseAllocs(t *testing.T) {
	const (
		ont  = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
		dept = "http://www.Department2.University3.edu/Department2"
		lq5  = "PREFIX ub: <" + ont + ">\nSELECT ?x ?i WHERE { ?x ub:headOf <" + dept + "> . " +
			"?x ub:worksFor <" + dept + "> . ?x ub:researchInterest ?i }"
		student = "<http://www.Department0.University1.edu/BenchStudent1_0>"
		prof    = "<http://www.Department2.University3.edu/BenchProfessor1_0>"
		insert  = "INSERT DATA {\n" +
			student + " <" + ont + "memberOf> <http://www.Department0.University1.edu/Department0> .\n" +
			student + " <" + ont + "name> \"BenchStudent1_0\" .\n" +
			student + " <" + ont + "advisor> <http://www.Department0.University1.edu/FullProfessor0> .\n" +
			student + " <" + ont + "takesCourse> <http://www.Department0.University1.edu/Course0> .\n" +
			prof + " <" + ont + "worksFor> <" + dept + "> .\n" +
			prof + " <" + ont + "name> \"BenchProfessor1_0\" .\n" +
			prof + " <" + ont + "emailAddress> \"bench1_0@dept2.univ3.edu\" .\n" +
			prof + " <" + ont + "researchInterest> \"Research7\" .\n}"
	)
	dict := rdf.NewDictionary()
	if _, err := Parse(lq5, dict); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseUpdate(insert); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"ParseReadOnly(LQ5)", 34, func() { _, _ = ParseReadOnly(lq5, dict) }},
		{"ParseUpdate(8 triples)", 7, func() { _, _ = ParseUpdate(insert) }},
	} {
		if got := testing.AllocsPerRun(100, c.run); got > c.max {
			t.Errorf("%s: %v allocs, want at most %v", c.name, got, c.max)
		}
	}
}

func TestParserAndBuilderAgree(t *testing.T) {
	// The same query built both ways must be structurally identical.
	d := rdf.NewDictionary()
	parsed, err := Parse(paperQuerySrc, d)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	built := query.NewBuilder(d).
		Triple(query.Var("t"), query.IRI("label"), query.Var("l")).
		Triple(query.Var("p1"), query.IRI("influencedBy"), query.Var("p2")).
		Triple(query.Var("p2"), query.IRI("mainInterest"), query.Var("t")).
		Triple(query.Var("p1"), query.IRI("name"), query.Term(rdf.NewLangLiteral("Crispin Wright", "en"))).
		Select("p2", "l").
		MustBuild()
	if parsed.String() != built.String() {
		t.Errorf("parsed:\n  %s\nbuilt:\n  %s", parsed, built)
	}
	if strings.Join(parsed.Vars, ",") != strings.Join(built.Vars, ",") {
		t.Errorf("vars differ: %v vs %v", parsed.Vars, built.Vars)
	}
}
