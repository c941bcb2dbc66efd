package rdf

// Native fuzz target for the N-Triples reader: arbitrary bytes must
// produce a graph or an error, never a panic; the reader must agree with
// oracleReadNTriples, the reader it replaced, on every input;
// and any graph that parses must survive a write/re-read round trip with
// the same size.

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func FuzzReadNTriples(f *testing.F) {
	for _, s := range []string{
		"<http://ex/a> <http://ex/p> <http://ex/b> .\n",
		"<http://ex/a> <http://ex/p> \"lit\" .\n",
		"<http://ex/a> <http://ex/p> \"lit\"@en-US .\n",
		"<http://ex/a> <http://ex/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .\n",
		"_:b0 <http://ex/p> _:b1 .\n# comment\n\n<http://ex/a> <http://ex/p> <http://ex/b> .\n",
		"<http://ex/a> <http://ex/p> \"esc\\\"\\n\\t\\u00e9\" .\n",
		"<http://ex/a> <http://ex/p> \"\\b\\f\\'\\U0001F600\" .\n",
		"<http://ex/a> <http://ex/p> .\n",
		"malformed",
		"",
		// '#' inside an IRI, a literal, a blank label and a language tag.
		"<http://ex/a#b> <http://ex/p#q> <http://ex/c#d> .\n",
		"<http://ex/a> <http://ex/p> \"x # y\" .\n",
		"_:a#b <http://ex/p> <http://ex/c> .\n",
		"<http://ex/a> <http://ex/p> _:o#c .\n",
		"<http://ex/a> <http://ex/p> \"x\"@en#c .\n",
		"<http://ex/a> <http://ex/p> _:o<x . # c\n",
		"<http://ex/a> <http://ex/p> \"x\"@e\"n . # c\n",
		// A comment after the '.'.
		"<http://ex/a> <http://ex/p> <http://ex/b> . # comment\n",
		"<http://ex/a> <http://ex/p> _:o.# tight\n",
		// A raw tab inside a literal.
		"<http://ex/a> <http://ex/p> \"tab\there\" .\n",
		// Invalid UTF-8 inside a literal: two spellings of one key.
		"<http://ex/a> <http://ex/p> \"\xff\" .\n<http://ex/a> <http://ex/p> \"\xfe\" .\n",
		// \u escapes.
		"<http://ex/a> <http://ex/p> \"caf\\u00e9\" .\n<http://ex/a> <http://ex/p> \"café\" .\n",
		// CRLF line endings.
		"<http://ex/a> <http://ex/p> <http://ex/b> .\r\n<http://ex/b> <http://ex/p> \"x\"@en .\r\n",
		// A line that holds only a comment.
		"# only a comment\n<http://ex/a> <http://ex/p> <http://ex/b> .\n",
		// White space the grammar does not separate terms with.
		"<http://ex/a> <http://ex/p> _:o\v .\n<http://ex/a> <http://ex/p> \"x\"@en\u00a0.\u00a0\n",
	} {
		f.Add([]byte(s))
	}
	// Each term TestParseTermErrors rejects, as an object.
	for _, o := range []string{"<http://no-close", "<>>", "_:", `"unterminated`, `"lit"@`, `"lit"^^<>`, `"lit"garbage`, "plainword", `"bad\qescape"`} {
		f.Add([]byte("<http://ex/a> <http://ex/p> " + o + " .\n"))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadNTriples(bytes.NewReader(data))
		want, wantErr := oracleReadNTriples(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ReadNTriples error %v, the oracle's %v", err, wantErr)
		}
		if err != nil {
			var pe, wantPE *ParseError
			if errors.As(err, &pe) != errors.As(wantErr, &wantPE) || pe != nil && pe.Line != wantPE.Line {
				t.Fatalf("ReadNTriples error %v, the oracle's %v", err, wantErr)
			}
			return
		}
		if g == nil {
			t.Fatalf("ReadNTriples returned neither a graph nor an error")
		}
		if !reflect.DeepEqual(g.Triples, want.Triples) || !reflect.DeepEqual(g.Dict.terms, want.Dict.terms) || !reflect.DeepEqual(g.Dict.ids, want.Dict.ids) {
			t.Fatalf("ReadNTriples read %v over %q, the oracle %v over %q", g.Triples, g.Dict.terms, want.Triples, want.Dict.terms)
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			t.Fatalf("re-serializing a parsed graph: %v", err)
		}
		g2, err := ReadNTriples(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-reading serialized output: %v\noutput: %q", err, buf.String())
		}
		if g2.Len() != g.Len() {
			t.Fatalf("round trip changed triple count: %d -> %d", g.Len(), g2.Len())
		}
	})
}
