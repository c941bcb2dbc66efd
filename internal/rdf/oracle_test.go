package rdf

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strings"
)

// oracleReadNTriples is the reader ReadNTriples replaced, kept verbatim
// with its helpers as the oracle FuzzReadNTriples holds it to: it strips
// each line's comment in a pass of its own, then cuts terms from a string
// and encodes each through Dictionary.Encode.
func oracleReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		s, p, o, ok, err := parseNTriplesLine(sc.Text())
		if err != nil {
			return nil, &ParseError{Line: lineno, Err: err}
		}
		if !ok {
			continue
		}
		g.Add(s, p, o)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ntriples: read: %w", err)
	}
	return g, nil
}

// parseNTriplesLine parses one line. ok is false for blank/comment lines.
func parseNTriplesLine(line string) (s, p, o Term, ok bool, err error) {
	// The grammar allows a comment after the terminating '.', so strip it
	// before looking for the terminator — but only a '#' outside IRI
	// brackets and literal quotes starts a comment.
	line = strings.TrimSpace(stripComment(line))
	if line == "" {
		return Term{}, Term{}, Term{}, false, nil
	}
	if !strings.HasSuffix(line, ".") {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("missing terminating '.'")
	}
	line = strings.TrimSpace(line[:len(line)-1])

	rest := line
	s, rest, err = cutTerm(rest)
	if err != nil {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("subject: %w", err)
	}
	p, rest, err = cutTerm(rest)
	if err != nil {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("predicate: %w", err)
	}
	o, rest, err = cutTerm(rest)
	if err != nil {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("object: %w", err)
	}
	if strings.TrimSpace(rest) != "" {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("trailing tokens %q", strings.TrimSpace(rest))
	}
	if s.IsLiteral() {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("literal subject not allowed")
	}
	if !p.IsIRI() {
		return Term{}, Term{}, Term{}, false, fmt.Errorf("predicate must be an IRI, got %s", p.Kind)
	}
	return s, p, o, true, nil
}

// cutTerm parses the term that opens s after any spaces and tabs and
// returns it with the rest of s: an IRI in angle brackets, a quoted literal
// with an optional @lang or ^^<datatype> suffix, or a _:label blank node.
// An IRI or literal ends at its closing bracket or quote; a language tag
// or a blank node label runs to the next space or tab.
func cutTerm(s string) (Term, string, error) {
	s = strings.TrimLeft(s, " \t")
	switch {
	case s == "":
		return Term{}, "", errors.New("missing term")
	case s[0] == '<':
		iri, rest, ok := strings.Cut(s[1:], ">")
		if !ok {
			return Term{}, "", errors.New("unterminated IRI")
		}
		return NewIRI(iri), rest, nil
	case s[0] == '"':
		lex, n, err := CutQuoted(s)
		if err != nil {
			return Term{}, "", err
		}
		s = s[n:]
		if strings.HasPrefix(s, "@") {
			end := fieldEnd(s)
			if end == 1 {
				return Term{}, "", errors.New("empty language tag")
			}
			return NewLangLiteral(lex, s[1:end]), s[end:], nil
		}
		if strings.HasPrefix(s, "^^<") {
			dt, rest, ok := strings.Cut(s[3:], ">")
			if !ok || dt == "" {
				return Term{}, "", errors.New("malformed datatype IRI")
			}
			return NewTypedLiteral(lex, dt), rest, nil
		}
		return NewLiteral(lex), s, nil
	}
	end := fieldEnd(s)
	if !strings.HasPrefix(s, "_:") || end == 2 {
		return Term{}, "", fmt.Errorf("unrecognized term %q", s[:end])
	}
	return NewBlank(s[2:end]), s[end:], nil
}

// fieldEnd returns the index of the first space or tab in s, or len(s).
func fieldEnd(s string) int {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return i
	}
	return len(s)
}

// stripComment truncates line at the first '#' that lies outside IRI
// brackets and literal quotes ('#' is legal inside both: IRI fragments,
// literal text). Escapes inside literals are honored, so an escaped
// quote cannot fake a literal's end.
func stripComment(line string) string {
	inIRI, inLiteral := false, false
	for i := 0; i < len(line); i++ {
		switch c := line[i]; {
		case inLiteral:
			if c == '\\' {
				i++ // skip the escaped character
			} else if c == '"' {
				inLiteral = false
			}
		case inIRI:
			if c == '>' {
				inIRI = false
			}
		case c == '<':
			inIRI = true
		case c == '"':
			inLiteral = true
		case c == '#':
			return line[:i]
		}
	}
	return line
}
