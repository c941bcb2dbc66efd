package sparql

import (
	"strings"
	"testing"

	"gstored/internal/rdf"
)

func TestLexerTokenKinds(t *testing.T) {
	l := &lexer{src: `SELECT ?x * { } . ; , <http://a> name:x 42 -3.5 "lit"@en "typed"^^<http://t> a`}
	var kinds []tokenKind
	for {
		tok, err := l.next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.kind == tokEOF {
			break
		}
		kinds = append(kinds, tok.kind)
	}
	want := []tokenKind{
		tokKeyword, tokVar, tokStar, tokLBrace, tokRBrace, tokDot, tokSemi,
		tokComma, tokIRI, tokPName, tokNumber, tokNumber, tokLiteral,
		tokLiteral, tokA,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexerNumberTerminatedByDot(t *testing.T) {
	// "42 ." — statement terminator must not be swallowed by the number.
	l := &lexer{src: `42 . 7. `}
	tok, _ := l.next()
	if tok.kind != tokNumber || tok.text != "42" {
		t.Fatalf("tok = %+v", tok)
	}
	tok, _ = l.next()
	if tok.kind != tokDot {
		t.Fatalf("expected dot, got %+v", tok)
	}
	tok, _ = l.next()
	if tok.kind != tokNumber || tok.text != "7" {
		t.Fatalf("tok = %+v", tok)
	}
	tok, _ = l.next()
	if tok.kind != tokDot {
		t.Fatalf("expected trailing dot, got %+v", tok)
	}
}

func TestLexerPNameTerminatedByDot(t *testing.T) {
	l := &lexer{src: `foaf:name .`}
	tok, _ := l.next()
	if tok.kind != tokPName || tok.text != "foaf:name" {
		t.Fatalf("tok = %+v", tok)
	}
	tok, _ = l.next()
	if tok.kind != tokDot {
		t.Fatalf("expected dot, got %+v", tok)
	}
}

func TestLexerLiteralEscapes(t *testing.T) {
	l := &lexer{src: `"a\nb\t\"c\"\\"`}
	tok, err := l.next()
	if err != nil {
		t.Fatal(err)
	}
	if tok.text != "a\nb\t\"c\"\\" {
		t.Errorf("literal = %q", tok.text)
	}
}

func TestLexerErrors(t *testing.T) {
	bad := []string{
		`"dangling\`,
		`"bad\q"`,
		`"unterminated`,
		`"lit"^^`,
		`"lit"@`,
		"\x01",
		`?`,
	}
	for _, src := range bad {
		l := &lexer{src: src}
		var err error
		for i := 0; i < 4 && err == nil; i++ {
			var tok token
			tok, err = l.next()
			if tok.kind == tokEOF {
				break
			}
		}
		if err == nil {
			t.Errorf("lexing %q should fail", src)
		}
	}
}

func TestLexerDatatypePName(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x WHERE { ?x <p> "5"^^xsd:int }`, d)
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := d.Decode(g.Vertices[g.Edges[0].To].Const)
	if obj.Datatype != "http://www.w3.org/2001/XMLSchema#int" {
		t.Errorf("datatype = %q", obj.Datatype)
	}
}

func TestParseTrailingSemicolon(t *testing.T) {
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT ?x WHERE { ?x <p> ?y ; }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Edges) != 1 {
		t.Errorf("edges = %d", len(g.Edges))
	}
	g2, err := Parse(`SELECT ?x WHERE { ?x <p> ?y ; . ?y <q> ?z }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(g2.Edges) != 2 {
		t.Errorf("edges = %d", len(g2.Edges))
	}
}

func TestParseReducedAndStar(t *testing.T) {
	d := rdf.NewDictionary()
	if _, err := Parse(`SELECT REDUCED * WHERE { ?x <p> ?y }`, d); err != nil {
		t.Fatal(err)
	}
}

func TestSyntaxErrorOffset(t *testing.T) {
	d := rdf.NewDictionary()
	src := `SELECT ?x WHERE { ?x <p ?y }`
	_, err := Parse(src, d)
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Pos <= 0 || se.Pos >= len(src) {
		t.Errorf("offset = %d", se.Pos)
	}
	if !strings.Contains(se.Error(), "offset") {
		t.Errorf("message = %q", se.Error())
	}
}

func TestParseDisconnectedAccepted(t *testing.T) {
	// Disconnected patterns are legal; the engine evaluates components
	// separately.
	d := rdf.NewDictionary()
	g, err := Parse(`SELECT ?x ?w WHERE { ?x <p> ?y . ?w <p> ?z }`, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.ConnectedComponents()) <= 1 {
		t.Error("should be disconnected")
	}
}
