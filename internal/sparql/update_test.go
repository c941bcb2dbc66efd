package sparql

import (
	"errors"
	"strings"
	"testing"

	"gstored/internal/rdf"
)

func mustParseUpdate(t *testing.T, src string) *Update {
	t.Helper()
	u, err := ParseUpdate(src)
	if err != nil {
		t.Fatalf("ParseUpdate(%q): %v", src, err)
	}
	return u
}

func TestParseUpdateInsertData(t *testing.T) {
	u := mustParseUpdate(t, `INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }`)
	if len(u.Ops) != 1 || u.Ops[0].Delete {
		t.Fatalf("ops = %+v, want one insert", u.Ops)
	}
	ts := u.Ops[0].Triples
	if len(ts) != 1 {
		t.Fatalf("triples = %+v", ts)
	}
	if ts[0].S != rdf.NewIRI("http://ex/a") || ts[0].P != rdf.NewIRI("http://ex/p") || ts[0].O != rdf.NewIRI("http://ex/b") {
		t.Errorf("triple = %+v", ts[0])
	}
}

func TestParseUpdateDeleteData(t *testing.T) {
	u := mustParseUpdate(t, `DELETE DATA { <http://ex/a> <http://ex/p> "v" }`)
	if len(u.Ops) != 1 || !u.Ops[0].Delete {
		t.Fatalf("ops = %+v, want one delete", u.Ops)
	}
	if got := u.Ops[0].Triples[0].O; got != rdf.NewLiteral("v") {
		t.Errorf("object = %+v", got)
	}
}

// TestParseUpdateSurfaceSyntax covers the triple surface forms shared
// with query patterns: prefixed names, the 'a' keyword, ';'/',' lists,
// language tags, datatypes, and bare numbers.
func TestParseUpdateSurfaceSyntax(t *testing.T) {
	u := mustParseUpdate(t, `
		PREFIX ex: <http://ex/>
		INSERT DATA {
			ex:a a ex:Widget ;
			     ex:label "thing"@en , "Ding"@de ;
			     ex:size 42 .
			ex:b ex:weight "1.5"^^<http://www.w3.org/2001/XMLSchema#float>
		}`)
	ts := u.Ops[0].Triples
	if len(ts) != 5 {
		t.Fatalf("got %d triples: %+v", len(ts), ts)
	}
	want := []GroundTriple{
		{rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"), rdf.NewIRI("http://ex/Widget")},
		{rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/label"), rdf.NewLangLiteral("thing", "en")},
		{rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/label"), rdf.NewLangLiteral("Ding", "de")},
		{rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/size"), rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
		{rdf.NewIRI("http://ex/b"), rdf.NewIRI("http://ex/weight"), rdf.NewTypedLiteral("1.5", "http://www.w3.org/2001/XMLSchema#float")},
	}
	for i, w := range want {
		if ts[i] != w {
			t.Errorf("triple %d = %+v, want %+v", i, ts[i], w)
		}
	}
}

// TestParseUpdateBracketedDatatype: data loaded from N-Triples with a
// non-http datatype IRI can be written back in a DELETE DATA, with or
// without a PREFIX named like the IRI's scheme.
func TestParseUpdateBracketedDatatype(t *testing.T) {
	for _, prologue := range []string{"", "PREFIX urn: <http://evil/>\n"} {
		u := mustParseUpdate(t, prologue+`DELETE DATA { <http://ex/a> <http://ex/p> "5"^^<urn:ex:int> }`)
		if got, want := u.Ops[0].Triples[0].O, rdf.NewTypedLiteral("5", "urn:ex:int"); got != want {
			t.Errorf("prologue %q: object = %v, want %v", prologue, got, want)
		}
	}
}

// TestParseUpdateSequence checks ';'-separated operations execute-in-order
// structure, including a trailing semicolon.
func TestParseUpdateSequence(t *testing.T) {
	u := mustParseUpdate(t, `
		INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> } ;
		DELETE DATA { <http://ex/c> <http://ex/p> <http://ex/d> } ;
	`)
	if len(u.Ops) != 2 || u.Ops[0].Delete || !u.Ops[1].Delete {
		t.Fatalf("ops = %+v, want insert then delete", u.Ops)
	}
	if n := len(u.Ops[0].Triples) + len(u.Ops[1].Triples); n != 2 {
		t.Errorf("triples = %d", n)
	}
}

// TestParseUpdateErrors pins the specific rejections: every excluded
// SPARQL Update form must fail with a message naming what is unsupported
// rather than a generic syntax error.
func TestParseUpdateErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"empty", ``, "empty update request"},
		{"select", `SELECT ?x WHERE { ?x <p> ?y }`, "query form"},
		{"insert-where", `INSERT { <a> <p> <b> } WHERE { <a> <q> <c> }`, "INSERT { ... } WHERE"},
		{"delete-where", `DELETE WHERE { <a> <p> <b> }`, "DELETE WHERE"},
		{"graph-quads", `INSERT DATA { GRAPH <http://ex/g> { <a> <p> <b> } }`, "GRAPH blocks"},
		{"variable-subject", `INSERT DATA { ?x <http://ex/p> <http://ex/b> }`, "concrete triples only"},
		{"variable-predicate", `DELETE DATA { <http://ex/a> ?p <http://ex/b> }`, "concrete triples only"},
		{"blank-node", `INSERT DATA { _:b <http://ex/p> <http://ex/b> }`, "blank node"},
		{"literal-subject", `INSERT DATA { "lit" <http://ex/p> <http://ex/b> }`, "literal subject"},
		{"missing-data", `INSERT <http://ex/a> <http://ex/p> <http://ex/b>`, "only INSERT DATA / DELETE DATA"},
		{"unclosed", `INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b>`, "'}'"},
		{"trailing", `INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> } garbage`, ""},
		{"undeclared-prefix", `INSERT DATA { ex:a <http://ex/p> <http://ex/b> }`, "undeclared prefix"},
		{"base", `BASE <http://ex/> INSERT DATA { <a> <p> <b> }`, "BASE"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseUpdate(tc.src)
			if err == nil {
				t.Fatalf("ParseUpdate(%q) succeeded, want error", tc.src)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestParseUpdateGroundErrorOffsets: the ground checks answer with a
// *SyntaxError at the offending term, however late in its triple.
func TestParseUpdateGroundErrorOffsets(t *testing.T) {
	for _, src := range []string{
		`INSERT DATA { <http://ex/a> <http://ex/p> ?x }`,
		`INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> , _:b }`,
		`DELETE DATA { "lit" <http://ex/p> <http://ex/b> }`,
	} {
		_, err := ParseUpdate(src)
		var syntax *SyntaxError
		if !errors.As(err, &syntax) {
			t.Fatalf("ParseUpdate(%q) = %v, want a *SyntaxError", src, err)
		}
		if want := strings.IndexAny(src, `?_"`); syntax.Pos != want {
			t.Errorf("ParseUpdate(%q): offset %d, want %d", src, syntax.Pos, want)
		}
	}
}

// TestQueryParserStillRejectsUpdateKeywords: adding Update keywords to
// the shared lexer must not let an update slip through the query parser.
func TestQueryParserStillRejectsUpdateKeywords(t *testing.T) {
	dict := rdf.NewDictionary()
	if _, err := Parse(`INSERT DATA { <a> <p> <b> }`, dict); err == nil {
		t.Error("query parser accepted INSERT DATA")
	}
	// And a query using the words as IRI content still parses.
	if _, err := Parse(`SELECT ?x WHERE { ?x <http://ex/insert> ?y }`, dict); err != nil {
		t.Errorf("IRI containing 'insert' failed: %v", err)
	}
}
