package rdf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// ParseError describes a syntax error in an N-Triples document, with the
// 1-based line it occurred on.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d: %v", e.Line, e.Err)
}

func (e *ParseError) Unwrap() error { return e.Err }

// ReadNTriples parses an N-Triples document from r into a new Graph. Blank
// lines and #-comments are skipped. Parsing stops at the first syntax
// error, which is returned as a *ParseError.
//
// Each line is cut from the scanner's bytes, and each term is interned by
// its token: an IRI, a blank node, or a literal whose token already is its
// canonical form (see Term.AppendTo) is looked up by those bytes, and a
// Term and the one copy its strings share are made on its first sight
// only; any other literal is decoded first, which costs its value. The
// graph is the reader's alone until it returns, so its dictionary is
// written without the lock.
func ReadNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for lineno := 1; sc.Scan(); lineno++ {
		ts, ok, err := cutLine(sc.Bytes())
		if err != nil {
			return nil, &ParseError{Line: lineno, Err: err}
		}
		if ok {
			g.Triples = append(g.Triples, Triple{g.Dict.intern(&ts[0]), g.Dict.intern(&ts[1]), g.Dict.intern(&ts[2])})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ntriples: read: %w", err)
	}
	return g, nil
}

// token is one term of a line. key is its canonical form, a slice of the
// line, in which a literal's closing quote is at quote; or key is nil,
// the line spells the term otherwise, and term is the decoded term.
type token struct {
	kind  TermKind
	key   []byte
	quote int
	term  Term
}

// intern returns tok's ID, assigning one on first sight. The caller holds
// the dictionary alone.
func (d *Dictionary) intern(tok *token) TermID {
	key := tok.key
	if key == nil {
		var buf [KeyBuf]byte
		key = tok.term.AppendTo(buf[:0])
	}
	if id, ok := d.ids[string(key)]; ok {
		return id
	}
	k := string(key)
	return d.add(k, tok.termOf(k))
}

// termOf returns tok's term, its strings slices of k, tok's key.
func (tok *token) termOf(k string) Term {
	switch {
	case tok.key == nil:
		return tok.term
	case tok.kind == IRI:
		return NewIRI(k[1 : len(k)-1])
	case tok.kind == Blank:
		return NewBlank(k[2:])
	}
	t, suffix := NewLiteral(k[1:tok.quote]), k[tok.quote+1:]
	if strings.HasPrefix(suffix, "@") {
		t.Lang = suffix[1:]
	} else if suffix != "" {
		t.Datatype = suffix[3 : len(suffix)-1]
	}
	return t
}

// cutLine cuts a line into the three terms of its triple; ok is false for
// a line that holds none (blank, or only a comment). The comment is the
// line from its first '#' outside IRI brackets and literal quotes; what
// precedes it, trimmed of white space, must end in '.', and before that
// hold three terms separated by spaces or tabs.
func cutLine(line []byte) (ts [3]token, ok bool, err error) {
	line = bytes.TrimSpace(line[:commentAt(line)])
	if len(line) == 0 {
		return ts, false, nil
	}
	if line[len(line)-1] != '.' {
		return ts, false, errors.New("missing terminating '.'")
	}
	rest := bytes.TrimSpace(line[:len(line)-1])
	for k, name := range [3]string{"subject", "predicate", "object"} {
		if rest, err = cutToken(&ts[k], rest); err != nil {
			return ts, false, fmt.Errorf("%s: %w", name, err)
		}
	}
	if rest = bytes.TrimSpace(rest); len(rest) > 0 {
		return ts, false, fmt.Errorf("trailing tokens %q", rest)
	}
	if ts[0].kind == Literal {
		return ts, false, errors.New("literal subject not allowed")
	}
	if ts[1].kind != IRI {
		return ts, false, fmt.Errorf("predicate must be an IRI, got %s", ts[1].kind)
	}
	return ts, true, nil
}

// cutToken cuts the term that opens b after any spaces and tabs and
// returns it with the rest of b: an IRI in angle brackets, a quoted
// literal with an optional @lang or ^^<datatype> suffix, or a _:label
// blank node. An IRI or literal ends at its closing bracket or quote; a
// language tag or a blank node label runs to the next space or tab.
func cutToken(tok *token, b []byte) (rest []byte, err error) {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	switch {
	case len(b) == 0:
		return nil, errors.New("missing term")
	case b[0] == '<':
		n := bytes.IndexByte(b, '>')
		if n < 0 {
			return nil, errors.New("unterminated IRI")
		}
		*tok = token{kind: IRI, key: b[:n+1]}
		return b[n+1:], nil
	case b[0] == '"':
		return cutLiteral(tok, b)
	}
	end := tokenEnd(b)
	if !bytes.HasPrefix(b, []byte("_:")) || end == 2 {
		return nil, fmt.Errorf("unrecognized term %q", b[:end])
	}
	*tok = token{kind: Blank, key: b[:end]}
	return b[end:], nil
}

// cutLiteral cuts the literal that opens b. Its token is its key unless
// the lexical form holds an escape, or a byte its canonical form escapes
// or replaces.
func cutLiteral(tok *token, b []byte) (rest []byte, err error) {
	quote := bytes.IndexByte(b[1:], '"') + 1
	canonical := quote > 0 && bytes.IndexByte(b[1:quote], '\\') < 0
	var value string
	switch lex := b[1:max(quote, 1)]; {
	case !canonical:
		v, n, err := CutQuoted(b)
		if err != nil {
			return nil, err
		}
		value, quote = v, n-1
	case bytes.IndexAny(lex, "\t\r\n") >= 0 || !utf8.Valid(lex):
		value, canonical = string(lex), false
	}
	rest = b[quote+1:]
	var lang, datatype []byte
	switch {
	case bytes.HasPrefix(rest, []byte("@")):
		end := tokenEnd(rest)
		if end == 1 {
			return nil, errors.New("empty language tag")
		}
		lang, rest = rest[1:end], rest[end:]
	case bytes.HasPrefix(rest, []byte("^^<")):
		n := bytes.IndexByte(rest[3:], '>')
		if n <= 0 {
			return nil, errors.New("malformed datatype IRI")
		}
		datatype, rest = rest[3:3+n], rest[3+n+1:]
	}
	if canonical {
		*tok = token{kind: Literal, key: b[:len(b)-len(rest)], quote: quote}
	} else {
		*tok = token{kind: Literal, term: Term{Kind: Literal, Value: value, Lang: string(lang), Datatype: string(datatype)}}
	}
	return rest, nil
}

// tokenEnd returns the index of the first space or tab in b, or len(b).
func tokenEnd(b []byte) int {
	if i := bytes.IndexAny(b, " \t"); i >= 0 {
		return i
	}
	return len(b)
}

// commentAt returns where the comment of line b begins: at the first '#'
// outside IRI brackets and literal quotes ('#' is legal inside both), or
// len(b). It skips each IRI and literal whole.
func commentAt(b []byte) int {
	for i := 0; i < len(b); i++ {
		n := 0
		switch b[i] {
		case '#':
			return i
		case '<':
			n = bytes.IndexByte(b[i:], '>')
		case '"':
			n = quoteAt(b[i:])
		}
		if n < 0 {
			return len(b)
		}
		i += n
	}
	return len(b)
}

// quoteAt returns the index of the quote that closes the literal opening
// b, or -1. Escapes are honored, so an escaped quote cannot fake the
// literal's end.
func quoteAt(b []byte) int {
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '"':
			return i
		case '\\':
			i++ // skip the escaped byte
		}
	}
	return -1
}

// WriteNTriples serializes g to w in canonical N-Triples form, one triple
// per line in insertion order.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for _, t := range g.Triples {
		s, ok := g.Dict.Decode(t.S)
		if !ok {
			return fmt.Errorf("ntriples: triple references unknown subject ID %d", t.S)
		}
		p, ok := g.Dict.Decode(t.P)
		if !ok {
			return fmt.Errorf("ntriples: triple references unknown predicate ID %d", t.P)
		}
		o, ok := g.Dict.Decode(t.O)
		if !ok {
			return fmt.Errorf("ntriples: triple references unknown object ID %d", t.O)
		}
		b := s.AppendTo(bw.AvailableBuffer())
		b = append(p.AppendTo(append(b, ' ')), ' ')
		b = append(o.AppendTo(b), " .\n"...)
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}
