// Package rdf implements the RDF data model used throughout gstored: terms
// (IRIs, literals, blank nodes), triples, a string↔ID dictionary, and
// streaming N-Triples input/output.
//
// All higher layers work on dictionary-encoded integer IDs; this package is
// the only place raw lexical forms appear.
package rdf

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// TermKind discriminates the three kinds of RDF terms.
type TermKind uint8

const (
	// IRI is an internationalized resource identifier, e.g. <http://a/b>.
	IRI TermKind = iota
	// Literal is a (possibly language-tagged or datatyped) literal value.
	Literal
	// Blank is a blank node, e.g. _:b0.
	Blank
)

func (k TermKind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	default:
		return fmt.Sprintf("TermKind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Value holds the IRI string (without angle
// brackets), the literal lexical form (without quotes), or the blank node
// label (without the "_:" prefix). Lang and Datatype are only meaningful for
// literals and are mutually exclusive per the RDF 1.1 data model.
type Term struct {
	Kind     TermKind
	Value    string
	Lang     string // BCP-47 tag for language-tagged literals ("en", "en-GB")
	Datatype string // datatype IRI for typed literals
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewLiteral returns a plain literal term.
func NewLiteral(lex string) Term { return Term{Kind: Literal, Value: lex} }

// NewLangLiteral returns a language-tagged literal term.
func NewLangLiteral(lex, lang string) Term {
	return Term{Kind: Literal, Value: lex, Lang: lang}
}

// NewTypedLiteral returns a datatyped literal term.
func NewTypedLiteral(lex, datatype string) Term {
	return Term{Kind: Literal, Value: lex, Datatype: datatype}
}

// NewBlank returns a blank node term with the given label.
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// String renders the term in canonical N-Triples syntax. The rendered form
// doubles as the dictionary key, so it must be injective over terms.
func (t Term) String() string {
	var b strings.Builder
	// Room for the form without escapes: one allocation for most terms.
	b.Grow(len(t.Value) + len(t.Lang) + len(t.Datatype) + 6)
	t.write(&b)
	return b.String()
}

func (t Term) write(b *strings.Builder) {
	switch t.Kind {
	case IRI:
		b.WriteByte('<')
		b.WriteString(t.Value)
		b.WriteByte('>')
	case Literal:
		b.WriteByte('"')
		escapeLiteral(b, t.Value)
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
	case Blank:
		b.WriteString("_:")
		b.WriteString(t.Value)
	}
}

// escapeLiteral writes s with N-Triples string escapes applied.
func escapeLiteral(b *strings.Builder, s string) {
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
}

// CutQuoted reads the double-quoted string that opens s in one pass and
// decodes the escapes N-Triples and SPARQL 1.1 share: ECHAR (\t \b \n \r
// \f \" \' \\) and UCHAR (\uXXXX, \UXXXXXXXX; a code point that is no
// valid rune decodes to U+FFFD). Every other byte passes through. It
// returns the decoded value and n, the length of the string in s with both
// quotes. A string without escapes decodes to a substring of s.
func CutQuoted(s string) (value string, n int, err error) {
	if !strings.HasPrefix(s, `"`) {
		return "", 0, errors.New(`literal must open with '"'`)
	}
	var b strings.Builder
	from := 1 // s[from:i] is text not yet copied to b; from > 1 once an escape is seen
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			if from == 1 {
				return s[1:i], i + 1, nil
			}
			b.WriteString(s[from:i])
			return b.String(), i + 1, nil
		case '\\':
			b.WriteString(s[from:i])
			i++
			if i == len(s) {
				return "", 0, errors.New("dangling escape in literal")
			}
			if k := strings.IndexByte(echars, s[i]); k >= 0 {
				b.WriteByte(echarValues[k])
			} else if s[i] == 'u' || s[i] == 'U' {
				end := i + 5
				if s[i] == 'U' {
					end = i + 9
				}
				v, err := strconv.ParseUint(s[i+1:min(end, len(s))], 16, 32)
				if end > len(s) || err != nil {
					return "", 0, fmt.Errorf("malformed \\%c escape in literal", s[i])
				}
				b.WriteRune(rune(v))
				i = end - 1
			} else {
				return "", 0, fmt.Errorf("unknown escape \\%c in literal", s[i])
			}
			from = i + 1
		}
	}
	return "", 0, errors.New("unterminated literal")
}

// echars are the ECHAR escape letters; echarValues[k] is what echars[k]
// decodes to.
const (
	echars      = `tbnrf"'\`
	echarValues = "\t\b\n\r\f\"'\\"
)
