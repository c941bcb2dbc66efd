package sparql

import (
	"strings"
	"testing"
	"unicode/utf8"

	"gstored/internal/rdf"
)

// readLiteral reads the literal text lit three ways: as the object of a
// one-line N-Triples document, as a query constant and as an INSERT DATA
// object. The two grammars must agree on every
// literal, or a query constant could never match the data it names.
func readLiteral(lit string) (terms [3]rdf.Term, errs [3]error) {
	if g, err := rdf.ReadNTriples(strings.NewReader("<urn:s> <urn:p> " + lit + " .\n")); err != nil {
		errs[0] = err
	} else {
		terms[0], _ = g.Dict.Decode(g.Triples[0].O)
	}
	dict := rdf.NewDictionary()
	if q, err := Parse("SELECT ?s WHERE { ?s <urn:p> "+lit+" }", dict); err != nil {
		errs[1] = err
	} else {
		terms[1], _ = dict.Decode(q.Vertices[q.Edges[0].To].Const)
	}
	if u, err := ParseUpdate("INSERT DATA { <urn:s> <urn:p> " + lit + " }"); err != nil {
		errs[2] = err
	} else {
		terms[2] = u.Ops[0].Triples[0].O
	}
	return terms, errs
}

var literalReaders = [3]string{"ReadNTriples", "Parse", "ParseUpdate"}

func TestLiteralEscapes(t *testing.T) {
	for _, c := range []struct {
		lit  string
		want string // decoded value; ignored when bad
		bad  bool
	}{
		{lit: `"a\tb"`, want: "a\tb"},
		{lit: `"a\bb"`, want: "a\bb"},
		{lit: `"a\nb"`, want: "a\nb"},
		{lit: `"a\rb"`, want: "a\rb"},
		{lit: `"a\fb"`, want: "a\fb"},
		{lit: `"a\"b"`, want: `a"b`},
		{lit: `"a\'b"`, want: "a'b"},
		{lit: `"a\\b"`, want: `a\b`},
		{lit: `"caf\u00e9"`, want: "café"},
		{lit: `"\U0001F600!"`, want: "\U0001F600!"},
		{lit: `"say \"hi\"!\n"`, want: "say \"hi\"!\n"},
		{lit: `"no escape"`, want: "no escape"},
		{lit: `"bad\qescape"`, bad: true},
		{lit: `"dangling\`, bad: true},
		{lit: `"truncated\u12"`, bad: true},
		{lit: `"bad hex\u12G4"`, bad: true},
		{lit: `"unterminated`, bad: true},
	} {
		terms, errs := readLiteral(c.lit)
		for i, name := range literalReaders {
			switch {
			case c.bad && errs[i] == nil:
				t.Errorf("%s(%s) = %#v, want an error", name, c.lit, terms[i])
			case !c.bad && errs[i] != nil:
				t.Errorf("%s(%s): %v", name, c.lit, errs[i])
			case !c.bad && terms[i] != rdf.NewLiteral(c.want):
				t.Errorf("%s(%s) = %#v, want %q", name, c.lit, terms[i], c.want)
			}
		}
	}
}

// FuzzLiteralRoundTrip pins the writer to both readers: the N-Triples
// form Term.String gives any valid UTF-8 value reads back to that value
// through rdf.ReadNTriples and a query constant.
func FuzzLiteralRoundTrip(f *testing.F) {
	for _, v := range []string{"", "plain", "café", "tab\there\n", `"quoted" \ back`, "\b\f'", "\U0001F600", " . # <x> ^^"} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if !utf8.ValidString(v) {
			return
		}
		want := rdf.NewLiteral(v)
		terms, errs := readLiteral(want.String())
		for i, name := range literalReaders[:2] {
			if errs[i] != nil || terms[i] != want {
				t.Fatalf("%s(%s) = %#v, %v; want %#v", name, want.String(), terms[i], errs[i], want)
			}
		}
	})
}
