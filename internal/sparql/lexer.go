// Package sparql implements a lexer and one recursive-descent grammar for
// the two request forms gstored accepts. Both open with the same prologue
// of PREFIX declarations and write triples the same way: '.'-separated
// blocks with ';'/',' predicate-object lists, the 'a' keyword, IRIs,
// prefixed names, blank node labels, literals and numbers, and variables
// in any position. Parse reads a SELECT query over a basic graph pattern
// (Definition 2 of the paper) with projection or *, DISTINCT/REDUCED and
// LIMIT/OFFSET; ParseUpdate reads the SPARQL 1.1 Update subset the write
// path executes, sequences of INSERT DATA / DELETE DATA over ground
// triples. The shared grammar never asks which form it is parsing: each
// caller receives the parsed triples through a callback and applies its
// own checks.
package sparql

import (
	"fmt"
	"strings"
	"unicode"

	"gstored/internal/rdf"
)

type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokKeyword
	tokVar     // ?name or $name
	tokIRI     // <...>
	tokPName   // prefix:local or prefix: (prefixed name)
	tokLiteral // "..." with optional @lang / ^^type (type carried separately)
	tokNumber  // integer or decimal
	tokA       // the keyword 'a' (rdf:type)
	tokStar    // *
	tokDot     // .
	tokSemi    // ;
	tokComma   // ,
	tokLBrace  // {
	tokRBrace  // }
)

type token struct {
	kind  tokenKind
	dtIRI bool   // dt was written <bracketed>, so it is not a pname
	text  string // keyword text (upper-cased), var name, IRI body, literal lexical form, pname, number
	lang  string // for tokLiteral
	dt    string // datatype IRI body or pname for tokLiteral
	pos   int    // byte offset, for error messages
}

// SyntaxError reports a SPARQL syntax error with a byte offset into the
// query string.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sparql: offset %d: %s", e.Pos, e.Msg)
}

type lexer struct {
	src string
	pos int
}

var keywords = map[string]bool{
	"SELECT": true, "WHERE": true, "PREFIX": true, "BASE": true,
	"DISTINCT": true, "REDUCED": true, "LIMIT": true, "OFFSET": true,
	// SPARQL 1.1 Update (the INSERT DATA / DELETE DATA subset; GRAPH is
	// lexed so the parser can reject quad forms with a precise message).
	"INSERT": true, "DELETE": true, "DATA": true, "GRAPH": true,
}

func errAt(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '#': // comment to end of line
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		default:
			return
		}
	}
}

func (l *lexer) next() (token, error) {
	l.skipSpace()
	start := l.pos
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case c == '?' || c == '$':
		l.pos++
		name := l.takeWhile(isVarChar)
		if name == "" {
			return token{}, errAt(start, "empty variable name")
		}
		return token{kind: tokVar, text: name, pos: start}, nil
	case c == '<':
		end := strings.IndexByte(l.src[l.pos:], '>')
		if end < 0 {
			return token{}, errAt(start, "unterminated IRI")
		}
		iri := l.src[l.pos+1 : l.pos+end]
		l.pos += end + 1
		return token{kind: tokIRI, text: iri, pos: start}, nil
	case c == '"':
		return l.lexLiteral(start)
	case c == '{':
		l.pos++
		return token{kind: tokLBrace, pos: start}, nil
	case c == '}':
		l.pos++
		return token{kind: tokRBrace, pos: start}, nil
	case c == '.':
		l.pos++
		return token{kind: tokDot, pos: start}, nil
	case c == ';':
		l.pos++
		return token{kind: tokSemi, pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, pos: start}, nil
	case c == '*':
		l.pos++
		return token{kind: tokStar, pos: start}, nil
	case c == '+' || c == '-' || (c >= '0' && c <= '9'):
		return l.lexNumber(start)
	case isPNChar(rune(c)) || c == ':':
		word := l.takeWhile(func(r rune) bool { return isPNChar(r) || r == ':' || r == '.' })
		// A trailing '.' terminates the triple, not the name.
		for strings.HasSuffix(word, ".") {
			word = word[:len(word)-1]
			l.pos--
		}
		if word == "a" {
			return token{kind: tokA, pos: start}, nil
		}
		// No keyword holds a ':', so a prefixed name skips the upper-casing.
		if strings.Contains(word, ":") {
			return token{kind: tokPName, text: word, pos: start}, nil
		}
		if kw := strings.ToUpper(word); keywords[kw] {
			return token{kind: tokKeyword, text: kw, pos: start}, nil
		}
		return token{}, errAt(start, "unexpected token %q", word)
	default:
		return token{}, errAt(start, "unexpected character %q", c)
	}
}

func (l *lexer) lexLiteral(start int) (token, error) {
	text, n, err := rdf.CutQuoted(l.src[l.pos:])
	if err != nil {
		return token{}, errAt(start, "%v", err)
	}
	tok := token{kind: tokLiteral, text: text, pos: start}
	l.pos += n
	// Optional @lang
	if l.pos < len(l.src) && l.src[l.pos] == '@' {
		l.pos++
		tok.lang = l.takeWhile(func(r rune) bool {
			return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '-'
		})
		if tok.lang == "" {
			return token{}, errAt(start, "empty language tag")
		}
		return tok, nil
	}
	// Optional ^^<iri> or ^^pname
	if strings.HasPrefix(l.src[l.pos:], "^^") {
		l.pos += 2
		if l.pos < len(l.src) && l.src[l.pos] == '<' {
			end := strings.IndexByte(l.src[l.pos:], '>')
			if end < 0 {
				return token{}, errAt(start, "unterminated datatype IRI")
			}
			tok.dt, tok.dtIRI = l.src[l.pos+1:l.pos+end], true
			l.pos += end + 1
		} else {
			tok.dt = l.takeWhile(func(r rune) bool { return isPNChar(r) || r == ':' })
			if tok.dt == "" {
				return token{}, errAt(start, "missing datatype after ^^")
			}
		}
	}
	return tok, nil
}

func (l *lexer) lexNumber(start int) (token, error) {
	n := l.takeWhile(func(r rune) bool {
		return (r >= '0' && r <= '9') || r == '.' || r == '+' || r == '-' || r == 'e' || r == 'E'
	})
	// A trailing '.' is the statement terminator, not part of the number.
	for strings.HasSuffix(n, ".") {
		n = n[:len(n)-1]
		l.pos--
	}
	if n == "" || n == "+" || n == "-" {
		return token{}, errAt(start, "malformed number")
	}
	return token{kind: tokNumber, text: n, pos: start}, nil
}

func (l *lexer) takeWhile(pred func(rune) bool) string {
	start := l.pos
	for l.pos < len(l.src) {
		r := rune(l.src[l.pos])
		if !pred(r) {
			break
		}
		l.pos++
	}
	return l.src[start:l.pos]
}

func isVarChar(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isPNChar(r rune) bool {
	return r == '_' || r == '-' || unicode.IsLetter(r) || unicode.IsDigit(r) || r > 127
}
