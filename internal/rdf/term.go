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
	"unicode/utf8"
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

// String renders the term in canonical N-Triples syntax: AppendTo's form.
func (t Term) String() string {
	var buf [KeyBuf]byte
	return string(t.AppendTo(buf[:0]))
}

// KeyBuf is the size of the stack buffer a term is rendered into before
// it is hashed or looked up: room for the IRIs and literals of typical
// data, which then cost no allocation.
const KeyBuf = 256

// AppendTo appends the term's canonical N-Triples form to b and returns
// the extended slice. The form doubles as the dictionary key, so it is
// injective over terms up to invalid UTF-8 in a literal, which renders
// as U+FFFD: an IRI is <Value>, a blank node _:Value, and a literal is
// Value in double quotes with ", \, LF, CR and tab escaped, followed by
// @Lang or else ^^<Datatype> when one is set.
func (t Term) AppendTo(b []byte) []byte {
	switch t.Kind {
	case IRI:
		b = append(b, '<')
		b = append(b, t.Value...)
		b = append(b, '>')
	case Literal:
		b = append(b, '"')
		b = appendEscaped(b, t.Value)
		b = append(b, '"')
		if t.Lang != "" {
			b = append(b, '@')
			b = append(b, t.Lang...)
		} else if t.Datatype != "" {
			b = append(b, "^^<"...)
			b = append(b, t.Datatype...)
			b = append(b, '>')
		}
	case Blank:
		b = append(b, "_:"...)
		b = append(b, t.Value...)
	}
	return b
}

// appendEscaped appends s with N-Triples string escapes applied, each
// invalid UTF-8 byte replaced by U+FFFD; runs that need neither are
// copied whole.
func appendEscaped(b []byte, s string) []byte {
	from := 0 // s[from:i] is not yet appended
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && n == 1 {
				b = append(b, s[from:i]...)
				b = utf8.AppendRune(b, r)
				from = i + 1
			}
			i += n
			continue
		}
		var esc string
		switch c {
		case '"':
			esc = `\"`
		case '\\':
			esc = `\\`
		case '\n':
			esc = `\n`
		case '\r':
			esc = `\r`
		case '\t':
			esc = `\t`
		default:
			i++
			continue
		}
		b = append(b, s[from:i]...)
		b = append(b, esc...)
		i++
		from = i
	}
	return append(b, s[from:]...)
}

// CutQuoted reads the double-quoted string that opens s in one pass and
// decodes the escapes N-Triples and SPARQL 1.1 share: ECHAR (\t \b \n \r
// \f \" \' \\) and UCHAR (\uXXXX, \UXXXXXXXX; a code point that is no
// valid rune decodes to U+FFFD). Every other byte passes through. It
// returns the decoded value and n, the length of the string in s with both
// quotes; s may run on past them. For a Go string s, a literal without
// escapes decodes to a substring of s.
func CutQuoted[S ~string | ~[]byte](s S) (value string, n int, err error) {
	if len(s) == 0 || s[0] != '"' {
		return "", 0, errors.New(`literal must open with '"'`)
	}
	var b []byte
	from := 1 // s[from:i] is text not yet copied to b; from > 1 once an escape is seen
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			if from == 1 {
				return string(s[1:i]), i + 1, nil
			}
			return string(append(b, s[from:i]...)), i + 1, nil
		case '\\':
			b = append(b, s[from:i]...)
			i++
			if i == len(s) {
				return "", 0, errors.New("dangling escape in literal")
			}
			if k := strings.IndexByte(echars, s[i]); k >= 0 {
				b = append(b, echarValues[k])
			} else if s[i] == 'u' || s[i] == 'U' {
				end := i + 5
				if s[i] == 'U' {
					end = i + 9
				}
				v, err := strconv.ParseUint(string(s[i+1:min(end, len(s))]), 16, 32)
				if end > len(s) || err != nil {
					return "", 0, fmt.Errorf("malformed \\%c escape in literal", s[i])
				}
				b = utf8.AppendRune(b, rune(v))
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
