// Package rdf implements the RDF data model used throughout gstored: terms
// (IRIs, literals, blank nodes), triples, a string↔ID dictionary, and
// streaming N-Triples input/output.
//
// All higher layers work on dictionary-encoded integer IDs; this package is
// the only place raw lexical forms appear.
package rdf

import (
	"fmt"
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

// ParseTerm parses a single term in N-Triples syntax: an IRI in angle
// brackets, a quoted literal with optional @lang or ^^<datatype> suffix, or
// a _:label blank node. It is the inverse of Term.String.
func ParseTerm(s string) (Term, error) {
	return parseTerm(strings.TrimSpace(s))
}

// parseTerm parses a term that starts at s[0] and ends with s: the
// N-Triples lexer cuts its tokens exactly, so anything it did not skip as
// a separator (a vertical tab, say) is part of the token and an error.
func parseTerm(s string) (Term, error) {
	if s == "" {
		return Term{}, fmt.Errorf("rdf: empty term")
	}
	switch s[0] {
	case '<':
		if !strings.HasSuffix(s, ">") || len(s) < 2 {
			return Term{}, fmt.Errorf("rdf: unterminated IRI %q", s)
		}
		iri := s[1 : len(s)-1]
		if strings.IndexByte(iri, '>') >= 0 {
			// Written back, the IRI would end at that '>'.
			return Term{}, fmt.Errorf("rdf: '>' inside IRI %q", s)
		}
		return NewIRI(iri), nil
	case '_':
		if !strings.HasPrefix(s, "_:") || len(s) == 2 {
			return Term{}, fmt.Errorf("rdf: malformed blank node %q", s)
		}
		return NewBlank(s[2:]), nil
	case '"':
		return parseLiteralTerm(s)
	default:
		return Term{}, fmt.Errorf("rdf: unrecognized term %q", s)
	}
}

func parseLiteralTerm(s string) (Term, error) {
	// Find the closing quote, honoring backslash escapes.
	end := -1
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++ // skip escaped char
		case '"':
			end = i
		}
		if end >= 0 {
			break
		}
	}
	if end < 0 {
		return Term{}, fmt.Errorf("rdf: unterminated literal %q", s)
	}
	lex, err := unescapeLiteral(s[1:end])
	if err != nil {
		return Term{}, err
	}
	rest := s[end+1:]
	switch {
	case rest == "":
		return NewLiteral(lex), nil
	case strings.HasPrefix(rest, "@"):
		lang := rest[1:]
		if lang == "" {
			return Term{}, fmt.Errorf("rdf: empty language tag in %q", s)
		}
		return NewLangLiteral(lex, lang), nil
	case strings.HasPrefix(rest, "^^<") && strings.HasSuffix(rest, ">"):
		dt := rest[3 : len(rest)-1]
		if dt == "" {
			return Term{}, fmt.Errorf("rdf: empty datatype in %q", s)
		}
		return NewTypedLiteral(lex, dt), nil
	default:
		return Term{}, fmt.Errorf("rdf: trailing garbage after literal: %q", s)
	}
}

func unescapeLiteral(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("rdf: dangling escape in literal %q", s)
		}
		switch s[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		case 'u', 'U':
			width := 4
			if s[i] == 'U' {
				width = 8
			}
			if i+width >= len(s) {
				return "", fmt.Errorf("rdf: truncated \\%c escape in %q", s[i], s)
			}
			var r rune
			for j := 0; j < width; j++ {
				i++
				r <<= 4
				switch c := s[i]; {
				case c >= '0' && c <= '9':
					r |= rune(c - '0')
				case c >= 'a' && c <= 'f':
					r |= rune(c-'a') + 10
				case c >= 'A' && c <= 'F':
					r |= rune(c-'A') + 10
				default:
					return "", fmt.Errorf("rdf: bad hex digit %q in unicode escape", c)
				}
			}
			b.WriteRune(r)
		default:
			return "", fmt.Errorf("rdf: unknown escape \\%c in literal", s[i])
		}
	}
	return b.String(), nil
}
