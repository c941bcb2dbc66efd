package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"gstored/internal/rdf"
)

// checkRead compares one response body with the oracle's answer. It runs
// after the op's clock has stopped.
func checkRead(o op, want *expect, body []byte) error {
	var hashes []uint64
	var err error
	if o.TSV {
		hashes, err = tsvRowHashes(body)
	} else {
		hashes, err = jsonRowHashes(body)
	}
	if err != nil {
		return err
	}
	if o.Limit > 0 {
		// Unordered LIMIT n: exactly n rows (all of them when the answer is
		// smaller), each a member of the full answer.
		n := min(o.Limit, want.Rows.Count)
		if len(hashes) != n {
			return fmt.Errorf("got %d rows, want exactly %d (LIMIT %d of %d)", len(hashes), n, o.Limit, want.Rows.Count)
		}
		for _, h := range hashes {
			if _, ok := want.Members[h]; !ok {
				return fmt.Errorf("row with hash %016x is not in the oracle's answer", h)
			}
		}
		return nil
	}
	var got rowSet
	for _, h := range hashes {
		got.add(h)
	}
	if got != want.Rows {
		return fmt.Errorf("got %d rows (checksum %016x), want %d (checksum %016x)", got.Count, got.Sum, want.Rows.Count, want.Rows.Sum)
	}
	return nil
}

// tsvRowHashes hashes every data line of a SPARQL TSV result. A TSV line
// already is the canonical row form (N-Triples cells joined by tabs).
func tsvRowHashes(body []byte) ([]uint64, error) {
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 || len(body) == 0 || body[0] != '?' {
		return nil, fmt.Errorf("tsv: missing header line")
	}
	body = body[nl+1:]
	var out []uint64
	for len(body) > 0 {
		nl = bytes.IndexByte(body, '\n')
		if nl < 0 {
			return nil, fmt.Errorf("tsv: truncated last line")
		}
		out = append(out, fnvAdd(fnvOffset, body[:nl]))
		body = body[nl+1:]
	}
	return out, nil
}

// jsonRowHashes hashes every binding of a SPARQL 1.1 JSON result in the
// canonical row form, columns in head.vars order. A hand-written scanner
// rather than encoding/json: a 17k-row body decodes in a few milliseconds
// this way, and verification time is wall time the run pays between ops.
func jsonRowHashes(body []byte) ([]uint64, error) {
	s := &jsonScanner{b: body}
	var vars []string
	var out []uint64
	seenBindings := false
	err := s.object(func(key string) error {
		switch key {
		case "head":
			return s.object(func(key string) error {
				if key != "vars" {
					return s.skip()
				}
				return s.array(func() error {
					v, err := s.str()
					vars = append(vars, v)
					return err
				})
			})
		case "results":
			return s.object(func(key string) error {
				if key != "bindings" {
					return s.skip()
				}
				seenBindings = true
				col := make(map[string]int, len(vars))
				for i, v := range vars {
					col[v] = i
				}
				cells := make([]string, len(vars))
				return s.array(func() error {
					clear(cells)
					err := s.object(func(name string) error {
						i, ok := col[name]
						if !ok {
							return fmt.Errorf("json: binding for undeclared variable %q", name)
						}
						t, err := s.term()
						cells[i] = t.String()
						return err
					})
					if err != nil {
						return err
					}
					h := uint64(fnvOffset)
					for i, c := range cells {
						h = addCell(h, i, c)
					}
					out = append(out, h)
					return nil
				})
			})
		}
		return s.skip()
	})
	if err != nil {
		return nil, err
	}
	if !seenBindings {
		return nil, fmt.Errorf("json: no results.bindings (head.vars must precede it)")
	}
	s.ws()
	if s.i != len(s.b) {
		return nil, fmt.Errorf("json: trailing bytes after the document")
	}
	return out, nil
}

// jsonScanner is a minimal strict JSON reader over a complete body.
type jsonScanner struct {
	b []byte
	i int
}

func (s *jsonScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\n', '\t', '\r':
			s.i++
		default:
			return
		}
	}
}

func (s *jsonScanner) eat(c byte) error {
	s.ws()
	if s.i >= len(s.b) || s.b[s.i] != c {
		return fmt.Errorf("json: want %q at offset %d", c, s.i)
	}
	s.i++
	return nil
}

func (s *jsonScanner) peek() byte {
	s.ws()
	if s.i >= len(s.b) {
		return 0
	}
	return s.b[s.i]
}

// str reads one JSON string. Strings without escapes are sliced out
// directly; the rare escaped one goes through encoding/json.
func (s *jsonScanner) str() (string, error) {
	if err := s.eat('"'); err != nil {
		return "", err
	}
	start := s.i
	escaped := false
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case '\\':
			escaped = true
			s.i += 2
			continue
		case '"':
			raw := s.b[start:s.i]
			s.i++
			if !escaped {
				return string(raw), nil
			}
			var v string
			err := json.Unmarshal(s.b[start-1:s.i], &v)
			return v, err
		}
		s.i++
	}
	return "", fmt.Errorf("json: unterminated string at offset %d", start)
}

// object calls field for every key with the scanner positioned at the
// key's value; field must consume exactly that value.
func (s *jsonScanner) object(field func(key string) error) error {
	if err := s.eat('{'); err != nil {
		return err
	}
	if s.peek() == '}' {
		s.i++
		return nil
	}
	for {
		key, err := s.str()
		if err != nil {
			return err
		}
		if err := s.eat(':'); err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		if s.peek() == ',' {
			s.i++
			continue
		}
		return s.eat('}')
	}
}

func (s *jsonScanner) array(elem func() error) error {
	if err := s.eat('['); err != nil {
		return err
	}
	if s.peek() == ']' {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if s.peek() == ',' {
			s.i++
			continue
		}
		return s.eat(']')
	}
}

// skip consumes one value of any type.
func (s *jsonScanner) skip() error {
	switch c := s.peek(); c {
	case '{':
		return s.object(func(string) error { return s.skip() })
	case '[':
		return s.array(s.skip)
	case '"':
		_, err := s.str()
		return err
	case 0:
		return fmt.Errorf("json: unexpected end of document")
	default:
		// number, true, false, null: runs to the next structural byte.
		for s.i < len(s.b) && strings.IndexByte(",]} \n\t\r", s.b[s.i]) < 0 {
			s.i++
		}
		return nil
	}
}

// term reads one RDF term object of the SPARQL JSON results format.
func (s *jsonScanner) term() (rdf.Term, error) {
	var typ string
	var t rdf.Term
	err := s.object(func(key string) error {
		v, err := s.str()
		switch key {
		case "type":
			typ = v
		case "value":
			t.Value = v
		case "xml:lang":
			t.Lang = v
		case "datatype":
			t.Datatype = v
		}
		return err
	})
	if err != nil {
		return t, err
	}
	switch typ {
	case "uri":
		t.Kind = rdf.IRI
	case "literal":
		t.Kind = rdf.Literal
	case "bnode":
		t.Kind = rdf.Blank
	default:
		return t, fmt.Errorf("json: unknown term type %q", typ)
	}
	return t, nil
}
