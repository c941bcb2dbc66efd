package rdf

// Native fuzz target for the N-Triples reader: arbitrary bytes must
// produce a graph or an error, never a panic — and any graph that
// parses must survive a write/re-read round trip with the same size.

import (
	"bytes"
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
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadNTriples(bytes.NewReader(data))
		if err != nil {
			return
		}
		if g == nil {
			t.Fatalf("ReadNTriples returned neither a graph nor an error")
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
