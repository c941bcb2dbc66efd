package sparql

// Native fuzz targets for the parser surface: arbitrary bytes must
// produce either a parse result or an error — never a panic, and the
// lexer must always make progress. Seed corpora live under
// testdata/fuzz/; CI runs each target for a short smoke window.

import (
	"errors"
	"testing"

	"gstored/internal/query"
	"gstored/internal/rdf"
)

var fuzzQuerySeeds = []string{
	"SELECT ?s WHERE { ?s <http://ex/p> ?o . }",
	"PREFIX ex: <http://ex/>\nSELECT * WHERE { ?x ex:name ?n . ?x a ex:Person . }",
	"SELECT DISTINCT ?s WHERE { ?s ?p \"lit\"@en . } ORDER BY ?s LIMIT 5 OFFSET 2",
	"SELECT REDUCED ?o WHERE { <http://ex/a> <http://ex/p> ?o . ?o <http://ex/q> 42 . }",
	"# comment\nBASE <http://ex/>\nSELECT ?s WHERE { ?s <p> _:b0 . }",
	"SELECT ?s WHERE { ?s ?p \"esc\\\"ape\\n\"^^<http://www.w3.org/2001/XMLSchema#string> . }",
	"SELECT ?s WHERE { ?s ?p \"\\b\\f\\'\\U0001F600\" . }",
	"",
	"SELECT",
	"SELECT ?s WHERE { ?s ?p ?o",
	"\x00\xff{}?",
}

func FuzzParse(f *testing.F) {
	for _, s := range fuzzQuerySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src, rdf.NewDictionary())
		if err == nil && q == nil {
			t.Fatalf("Parse(%q) returned neither a query nor an error", src)
		}
	})
}

func FuzzParseUpdate(f *testing.F) {
	for _, s := range []string{
		"INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }",
		"DELETE DATA { <http://ex/a> <http://ex/p> \"v\" }",
		"PREFIX ex: <http://ex/>\nINSERT DATA { ex:a ex:p ex:b . ex:b ex:p \"x\"@en }",
		"INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> } ;\nDELETE DATA { <http://ex/c> <http://ex/p> <http://ex/d> }",
		"INSERT DATA { GRAPH <http://ex/g> { <a> <b> <c> } }",
		"INSERT",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		u, err := ParseUpdate(src)
		if err == nil && u == nil {
			t.Fatalf("ParseUpdate(%q) returned neither an update nor an error", src)
		}
	})
}

// FuzzGroundBlock checks that queries and updates read a triple block
// alike. Whenever ParseUpdate takes prologue and block as one INSERT DATA
// of 1..query.MaxSize triples over at most query.MaxSize distinct
// subjects and objects, Parse must take the same block as a SELECT
// pattern, and its edges must decode to the update's triples in order.
// The block must lex on its own and hold no brace, so that it cannot
// reach past its wrapper (a '}' or a trailing comment would end the
// INSERT DATA block where the SELECT one does not). Every ParseUpdate
// error must be a *SyntaxError: the server answers only those with 400.
func FuzzGroundBlock(f *testing.F) {
	for _, s := range [][2]string{
		{"", "<http://ex/a> <http://ex/p> <http://ex/b>"},
		{"", `<http://ex/a> <http://ex/p> "v"`},
		{"PREFIX ex: <http://ex/>\n", `ex:a ex:p ex:b . ex:b ex:p "x"@en`},
		{"PREFIX ex: <http://ex/>\n", `ex:a a ex:W ; ex:l "t"@en , "D"@de ; ex:n 42 . ex:b ex:w 1.5e3 ;`},
		{"", "GRAPH <http://ex/g> { <a> <b> <c> }"},
		{"", "_:b <http://ex/p> <http://ex/b>"},
		{"PREFIX urn: <http://evil/>\n", `<http://ex/a> <http://ex/p> "5"^^<urn:ex:int>`},
		{"", ""},
	} {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, prologue, block string) {
		u, err := ParseUpdate(prologue + "INSERT DATA {" + block + "}")
		var syntax *SyntaxError
		if err != nil && !errors.As(err, &syntax) {
			t.Fatalf("ParseUpdate error %v is a %T, not a *SyntaxError", err, err)
		}
		if err != nil || len(u.Ops) != 1 || !standalone(block) {
			return
		}
		triples := u.Ops[0].Triples
		vertices := map[rdf.Term]bool{}
		for _, tr := range triples {
			vertices[tr.S], vertices[tr.O] = true, true
		}
		if len(triples) == 0 || len(triples) > query.MaxSize || len(vertices) > query.MaxSize {
			return
		}
		dict := rdf.NewDictionary()
		g, err := Parse(prologue+"SELECT * WHERE {"+block+"}", dict)
		if err != nil {
			t.Fatalf("ParseUpdate took block %q but Parse rejects it: %v", block, err)
		}
		if len(g.Edges) != len(triples) {
			t.Fatalf("block %q: %d edges, %d triples", block, len(g.Edges), len(triples))
		}
		for i, e := range g.Edges {
			s, _ := dict.Decode(g.Vertices[e.From].Const)
			p, _ := dict.Decode(e.Label)
			o, _ := dict.Decode(g.Vertices[e.To].Const)
			if got := (GroundTriple{S: s, P: p, O: o}); got != triples[i] {
				t.Fatalf("block %q: edge %d decodes to %v, update triple is %v", block, i, got, triples[i])
			}
		}
	})
}

// standalone reports whether src lexes on its own into tokens none of
// which is a brace.
func standalone(src string) bool {
	l := &lexer{src: src}
	for {
		tok, err := l.next()
		switch {
		case err != nil || tok.kind == tokLBrace || tok.kind == tokRBrace:
			return false
		case tok.kind == tokEOF:
			return true
		}
	}
}

func FuzzLexer(f *testing.F) {
	for _, s := range fuzzQuerySeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		l := &lexer{src: src}
		// Every token consumes at least one byte, so the token count is
		// bounded by len(src); running past that bound means the lexer
		// stopped making progress.
		for i := 0; i <= len(src); i++ {
			tok, err := l.next()
			if err != nil || tok.kind == tokEOF {
				return
			}
		}
		t.Fatalf("lexer made no progress on %q", src)
	})
}
