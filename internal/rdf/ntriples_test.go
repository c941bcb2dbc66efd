package rdf

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

const sampleNT = `
# The paper's example query's constants, roughly.
<http://ex/phi1> <http://ex/name> "Crispin Wright"@en .
<http://ex/phi1> <http://ex/influencedBy> <http://ex/phi2> .
<http://ex/phi2> <http://ex/mainInterest> <http://ex/int1> .

<http://ex/int1> <http://ex/label> "Philosophy of language"@en .
_:b1 <http://ex/birthDate> "1942-12-21"^^<http://www.w3.org/2001/XMLSchema#date> .
`

func TestReadNTriples(t *testing.T) {
	g, err := ReadNTriples(strings.NewReader(sampleNT))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if g.Len() != 5 {
		t.Fatalf("parsed %d triples, want 5", g.Len())
	}
	s, _ := g.Dict.Decode(g.Triples[0].S)
	if s != NewIRI("http://ex/phi1") {
		t.Errorf("first subject = %#v", s)
	}
	o, _ := g.Dict.Decode(g.Triples[0].O)
	if o != NewLangLiteral("Crispin Wright", "en") {
		t.Errorf("first object = %#v", o)
	}
	s4, _ := g.Dict.Decode(g.Triples[4].S)
	if s4 != NewBlank("b1") {
		t.Errorf("blank subject = %#v", s4)
	}
}

func TestReadNTriplesErrors(t *testing.T) {
	cases := []struct {
		name, in string
		line     int
	}{
		{"missing dot", "<http://a> <http://b> <http://c>\n", 1},
		{"literal subject", `"lit" <http://p> <http://o> .`, 1},
		{"literal predicate", `<http://s> "p" <http://o> .`, 1},
		{"blank predicate", `<http://s> _:p <http://o> .`, 1},
		{"too few terms", `<http://s> <http://p> .`, 1},
		{"trailing garbage", `<http://s> <http://p> <http://o> <http://x> .`, 1},
		{"second line bad", "<http://s> <http://p> <http://o> .\n<oops .\n", 2},
		// A vertical tab is no separator: it is part of the third token,
		// which once parsed as the IRI ">" and could not be read back.
		{"vertical tab before a term", "<><>\v<>>.", 1},
		{"vertical tab between terms", "<http://s>\v<http://p> <http://o> .", 1},
	}
	for _, c := range cases {
		_, err := ReadNTriples(strings.NewReader(c.in))
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v is not a *ParseError", c.name, err)
			continue
		}
		if pe.Line != c.line {
			t.Errorf("%s: error on line %d, want %d", c.name, pe.Line, c.line)
		}
	}
}

func TestNTriplesEmbeddedSpacesAndEscapes(t *testing.T) {
	in := `<http://s> <http://p> "a literal with spaces and a \" quote" .` + "\n" +
		`<http://s> <http://p> "tab\there"@en .` + "\n"
	g, err := ReadNTriples(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	o0, _ := g.Dict.Decode(g.Triples[0].O)
	if o0.Value != `a literal with spaces and a " quote` {
		t.Errorf("object 0 = %q", o0.Value)
	}
	o1, _ := g.Dict.Decode(g.Triples[1].O)
	if o1.Value != "tab\there" || o1.Lang != "en" {
		t.Errorf("object 1 = %#v", o1)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := NewGraph()
	g.AddIRIs("http://s1", "http://p", "http://o1")
	g.Add(NewIRI("http://s1"), NewIRI("http://q"), NewLangLiteral("héllo \"world\"\n", "en"))
	g.Add(NewBlank("x"), NewIRI("http://p"), NewTypedLiteral("3.14", "http://www.w3.org/2001/XMLSchema#decimal"))

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatalf("WriteNTriples: %v", err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatalf("ReadNTriples: %v", err)
	}
	if !sameTripleSet(g, back) {
		t.Errorf("round trip mismatch:\noriginal: %v\nreparsed: %v", renderAll(g), renderAll(back))
	}
}

func TestNTriplesRoundTripProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			s := randomTerm(r)
			for s.IsLiteral() {
				s = randomTerm(r)
			}
			p := NewIRI("http://p/" + string(rune('a'+r.Intn(5))))
			g.Add(s, p, randomTerm(r))
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		back, err := ReadNTriples(&buf)
		if err != nil {
			return false
		}
		return sameTripleSet(g, back)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sameTripleSet compares two graphs' triples as decoded term tuples,
// insensitive to dictionary ID assignment but sensitive to multiplicity.
func sameTripleSet(a, b *Graph) bool {
	return reflect.DeepEqual(renderAll(a), renderAll(b))
}

func renderAll(g *Graph) []string {
	out := make([]string, 0, g.Len())
	for _, t := range g.Triples {
		s, _ := g.Dict.Decode(t.S)
		p, _ := g.Dict.Decode(t.P)
		o, _ := g.Dict.Decode(t.O)
		out = append(out, s.String()+" "+p.String()+" "+o.String())
	}
	sort.Strings(out)
	return out
}
