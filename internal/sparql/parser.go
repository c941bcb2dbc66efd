package sparql

import (
	"strconv"
	"strings"

	"gstored/internal/query"
	"gstored/internal/rdf"
)

// rdfType is the IRI the 'a' keyword abbreviates.
const rdfType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

const (
	xsdInteger = "http://www.w3.org/2001/XMLSchema#integer"
	xsdDecimal = "http://www.w3.org/2001/XMLSchema#decimal"
	xsdDouble  = "http://www.w3.org/2001/XMLSchema#double"
)

// Parse parses a SPARQL SELECT query over a basic graph pattern and returns
// the corresponding query graph. Constants are encoded through dict so the
// query is directly evaluable against graphs sharing that dictionary;
// unseen constants are assigned fresh dictionary IDs.
//
// Solution modifiers: SELECT DISTINCT sets Graph.Distinct, and LIMIT /
// OFFSET (in either order, each at most once) set Graph.Limit/Offset.
// SELECT REDUCED is accepted as a spec-legal no-op — REDUCED merely
// *permits* eliminating duplicates, so returning the unreduced multiset
// (the cheapest legal answer here) is conformant.
func Parse(src string, dict *rdf.Dictionary) (*query.Graph, error) {
	return parse(src, query.NewBuilder(dict))
}

// ParseReadOnly is Parse without dictionary mutation: constants the
// dictionary has not seen resolve to placeholder IDs that match nothing
// (see query.NewBuilderReadOnly). Use it for untrusted query streams —
// e.g. a public endpoint — where Parse would let clients grow the shared
// dictionary without bound.
func ParseReadOnly(src string, dict *rdf.Dictionary) (*query.Graph, error) {
	return parse(src, query.NewBuilderReadOnly(dict))
}

func parse(src string, b *query.Builder) (*query.Graph, error) {
	var p parser
	if err := p.start(src); err != nil {
		return nil, err
	}
	return p.parseQuery(b)
}

// parser holds the grammar state both request forms share: the token
// stream and the prologue's prefixes.
type parser struct {
	lex      lexer
	tok      token
	prefixes map[string]string
}

// start positions p after the prologue of src.
func (p *parser) start(src string) error {
	*p = parser{lex: lexer{src: src}, prefixes: map[string]string{}}
	if err := p.advance(); err != nil {
		return err
	}
	return p.parsePrologue()
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return errAt(p.tok.pos, format, args...)
}

// parsePrologue parses PREFIX declarations; BASE is unsupported but
// detected.
func (p *parser) parsePrologue() error {
	for p.tok.kind == tokKeyword && p.tok.text == "PREFIX" {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokPName || !strings.HasSuffix(p.tok.text, ":") {
			return p.errf("expected 'name:' after PREFIX")
		}
		name := strings.TrimSuffix(p.tok.text, ":")
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokIRI {
			return p.errf("expected IRI after PREFIX %s:", name)
		}
		p.prefixes[name] = p.tok.text
		if err := p.advance(); err != nil {
			return err
		}
	}
	if p.tok.kind == tokKeyword && p.tok.text == "BASE" {
		return p.errf("BASE declarations are not supported")
	}
	return nil
}

func (p *parser) parseQuery(b *query.Builder) (*query.Graph, error) {
	if p.tok.kind != tokKeyword || p.tok.text != "SELECT" {
		return nil, p.errf("expected SELECT")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	distinct := false
	if p.tok.kind == tokKeyword && (p.tok.text == "DISTINCT" || p.tok.text == "REDUCED") {
		distinct = p.tok.text == "DISTINCT"
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	var selected []string // nil => SELECT *
	switch p.tok.kind {
	case tokStar:
		if err := p.advance(); err != nil {
			return nil, err
		}
	case tokVar:
		for p.tok.kind == tokVar {
			selected = append(selected, p.tok.text)
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	default:
		return nil, p.errf("expected '*' or variables after SELECT")
	}
	// Optional WHERE keyword.
	if p.tok.kind == tokKeyword && p.tok.text == "WHERE" {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokLBrace {
		return nil, p.errf("expected '{' starting the graph pattern")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	err := p.parseTriples(func(s, pred, o node) error {
		for _, n := range [...]*node{&s, &pred, &o} {
			if n.t.IsBlank() {
				return errAt(n.pos, "blank node %s in a query pattern: use a variable instead", n.t)
			}
		}
		b.Triple(s.spec(), pred.spec(), o.spec())
		return nil
	})
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokRBrace {
		return nil, p.errf("expected '}'")
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.parseSolutionModifiers(b); err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	if selected != nil {
		b.Select(selected...)
	}
	if distinct {
		b.Distinct()
	}
	return b.Build()
}

// parseSolutionModifiers parses the LIMIT/OFFSET clauses after the graph
// pattern. The SPARQL 1.1 grammar (LimitOffsetClauses) allows the two in
// either order, each at most once.
func (p *parser) parseSolutionModifiers(b *query.Builder) error {
	var haveLimit, haveOffset bool
	for p.tok.kind == tokKeyword && (p.tok.text == "LIMIT" || p.tok.text == "OFFSET") {
		kw := p.tok.text
		if (kw == "LIMIT" && haveLimit) || (kw == "OFFSET" && haveOffset) {
			return p.errf("duplicate %s clause", kw)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.kind != tokNumber {
			return p.errf("expected a non-negative integer after %s", kw)
		}
		// The grammar takes a bare INTEGER ([0-9]+): a sign — even '+',
		// which Atoi would accept — is a syntax error.
		if strings.HasPrefix(p.tok.text, "+") || strings.HasPrefix(p.tok.text, "-") {
			return p.errf("%s requires an unsigned integer, got %q", kw, p.tok.text)
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil || n < 0 {
			return p.errf("%s requires a non-negative integer, got %q", kw, p.tok.text)
		}
		if kw == "LIMIT" {
			haveLimit = true
			b.Limit(n)
		} else {
			haveOffset = true
			b.Offset(n)
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

// node is one position of a parsed triple: a variable (v != "") or a
// constant term t, with the byte offset it starts at.
type node struct {
	v   string
	t   rdf.Term
	pos int
}

// spec converts n for query.Builder.
func (n *node) spec() query.Node {
	if n.v != "" {
		return query.Var(n.v)
	}
	return query.Term(n.t)
}

// parseTriples parses a block of triples — '.'-separated, with ';'/','
// predicate-object lists — and hands each (s, p, o) to emit in source
// order. It stops at the first token that cannot start a triple ('}', a
// keyword, EOF) and leaves it to the caller.
func (p *parser) parseTriples(emit func(s, pred, o node) error) error {
	for p.tok.kind != tokRBrace && p.tok.kind != tokEOF && p.tok.kind != tokKeyword {
		subj, err := p.parseTerm("subject")
		if err != nil {
			return err
		}
		for {
			pred, err := p.parseVerb()
			if err != nil {
				return err
			}
			for {
				obj, err := p.parseTerm("object")
				if err != nil {
					return err
				}
				if err := emit(subj, pred, obj); err != nil {
					return err
				}
				if p.tok.kind != tokComma {
					break
				}
				if err := p.advance(); err != nil {
					return err
				}
			}
			if p.tok.kind != tokSemi {
				break
			}
			if err := p.advance(); err != nil {
				return err
			}
			// '; }' and '; .' (trailing semicolon) are permitted.
			if p.tok.kind == tokRBrace || p.tok.kind == tokDot {
				break
			}
		}
		if p.tok.kind != tokDot {
			return nil
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

// parseVerb parses a predicate: 'a', a variable, an IRI or a prefixed
// name.
func (p *parser) parseVerb() (node, error) {
	switch p.tok.kind {
	case tokA:
		n := node{t: rdf.NewIRI(rdfType), pos: p.tok.pos}
		return n, p.advance()
	case tokVar, tokIRI, tokPName:
		return p.parseTerm("predicate")
	}
	return node{}, p.errf("expected predicate")
}

// parseTerm parses a subject or object: a variable, an IRI, a prefixed
// name, a blank node label (_:b), a literal or a number.
func (p *parser) parseTerm(role string) (node, error) {
	n := node{pos: p.tok.pos}
	switch p.tok.kind {
	case tokVar:
		n.v = p.tok.text
	case tokIRI:
		n.t = rdf.NewIRI(p.tok.text)
	case tokPName:
		if label, ok := strings.CutPrefix(p.tok.text, "_:"); ok {
			n.t = rdf.NewBlank(label)
			break
		}
		iri, err := p.expandPName(p.tok.text)
		if err != nil {
			return n, err
		}
		n.t = rdf.NewIRI(iri)
	case tokLiteral:
		switch {
		case p.tok.lang != "":
			n.t = rdf.NewLangLiteral(p.tok.text, p.tok.lang)
		case p.tok.dt == "":
			n.t = rdf.NewLiteral(p.tok.text)
		case p.tok.dtIRI:
			n.t = rdf.NewTypedLiteral(p.tok.text, p.tok.dt)
		default:
			dt, err := p.expandPName(p.tok.dt)
			if err != nil {
				return n, err
			}
			n.t = rdf.NewTypedLiteral(p.tok.text, dt)
		}
	case tokNumber:
		dt := xsdInteger
		if strings.ContainsAny(p.tok.text, "eE") {
			dt = xsdDouble
		} else if strings.Contains(p.tok.text, ".") {
			dt = xsdDecimal
		}
		n.t = rdf.NewTypedLiteral(p.tok.text, dt)
	default:
		return n, p.errf("expected %s term", role)
	}
	return n, p.advance()
}

func (p *parser) expandPName(pname string) (string, error) {
	i := strings.IndexByte(pname, ':')
	if i < 0 {
		return "", p.errf("malformed prefixed name %q", pname)
	}
	prefix, local := pname[:i], pname[i+1:]
	base, ok := p.prefixes[prefix]
	if !ok {
		return "", p.errf("undeclared prefix %q", prefix)
	}
	return base + local, nil
}
