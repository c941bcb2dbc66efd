package sparql

import "gstored/internal/rdf"

// Update is a parsed SPARQL 1.1 Update request: a sequence of INSERT DATA
// / DELETE DATA operations over ground triples, executed in order. The
// quad forms (GRAPH blocks) and the pattern forms (DELETE/INSERT ...
// WHERE, DELETE WHERE, LOAD, CLEAR, ...) are out of scope and rejected
// at parse time with a specific message.
type Update struct {
	Ops []UpdateOp
}

// UpdateOp is one INSERT DATA or DELETE DATA operation.
type UpdateOp struct {
	// Delete distinguishes DELETE DATA (true) from INSERT DATA (false).
	Delete bool
	// Triples are the ground triples of the data block, in source order.
	Triples []GroundTriple
}

// GroundTriple is one concrete triple of a data block: no variables, no
// blank nodes — every position is an IRI or (object only) a literal.
type GroundTriple struct {
	S, P, O rdf.Term
}

// ParseUpdate parses a SPARQL 1.1 Update request restricted to the
// INSERT DATA / DELETE DATA forms over ground triples. Operations may be
// separated by ';' (a trailing ';' is permitted, per the grammar), share
// one prologue of PREFIX declarations, and are written in the grammar
// queries use (';'/',' predicate-object lists, the 'a' keyword, prefixed
// names, literals with language tags and datatypes) — minus variables
// and blank nodes, which make a triple non-ground.
//
// Terms are returned at the rdf.Term level, not dictionary-encoded: the
// caller decides whether a term may grow the dictionary (inserts must,
// deletes need not — a term the dictionary has never seen cannot occur
// in any stored triple).
func ParseUpdate(src string) (*Update, error) {
	var p parser
	if err := p.start(src); err != nil {
		return nil, err
	}
	u := &Update{}
	for p.tok.kind != tokEOF {
		op, err := p.parseUpdateOp()
		if err != nil {
			return nil, err
		}
		u.Ops = append(u.Ops, op)
		if p.tok.kind != tokSemi {
			break
		}
		// A trailing ';' before EOF is fine.
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("unexpected trailing input")
	}
	if len(u.Ops) == 0 {
		return nil, p.errf("empty update request: expected INSERT DATA or DELETE DATA")
	}
	return u, nil
}

// parseUpdateOp parses one "INSERT DATA { ... }" or "DELETE DATA { ... }".
func (p *parser) parseUpdateOp() (UpdateOp, error) {
	if p.tok.kind != tokKeyword || (p.tok.text != "INSERT" && p.tok.text != "DELETE") {
		if p.tok.kind == tokKeyword && p.tok.text == "SELECT" {
			return UpdateOp{}, p.errf("this is the update endpoint: SELECT queries go to the query form")
		}
		return UpdateOp{}, p.errf("expected INSERT DATA or DELETE DATA")
	}
	op := UpdateOp{Delete: p.tok.text == "DELETE"}
	verb := p.tok.text
	if err := p.advance(); err != nil {
		return op, err
	}
	if p.tok.kind != tokKeyword || p.tok.text != "DATA" {
		// Precise messages for the spec forms we deliberately exclude.
		if p.tok.kind == tokKeyword && p.tok.text == "WHERE" {
			return op, p.errf("%s WHERE is not supported: only the ground-data forms INSERT DATA / DELETE DATA are", verb)
		}
		if p.tok.kind == tokLBrace {
			return op, p.errf("%s { ... } WHERE { ... } is not supported: only the ground-data forms INSERT DATA / DELETE DATA are", verb)
		}
		return op, p.errf("expected DATA after %s (only INSERT DATA / DELETE DATA are supported)", verb)
	}
	if err := p.advance(); err != nil {
		return op, err
	}
	if p.tok.kind != tokLBrace {
		return op, p.errf("expected '{' starting the %s DATA block", verb)
	}
	if err := p.advance(); err != nil {
		return op, err
	}
	err := p.parseTriples(func(s, pred, o node) error {
		for i, n := range [...]*node{&s, &pred, &o} {
			if err := ground(n, i == 0); err != nil {
				return err
			}
		}
		op.Triples = append(op.Triples, GroundTriple{S: s.t, P: pred.t, O: o.t})
		return nil
	})
	if err != nil {
		return op, err
	}
	if p.tok.kind == tokKeyword && p.tok.text == "GRAPH" {
		return op, p.errf("GRAPH blocks (quad data) are not supported: updates target the default graph")
	}
	if p.tok.kind != tokRBrace {
		return op, p.errf("expected '}' closing the %s DATA block", verb)
	}
	return op, p.advance()
}

// ground rejects what makes a data block's term non-ground — a variable
// or a blank node — and a literal in subject position.
func ground(n *node, subject bool) error {
	switch {
	case n.v != "":
		return errAt(n.pos, "variable ?%s in ground data: INSERT DATA / DELETE DATA take concrete triples only", n.v)
	case n.t.IsBlank():
		return errAt(n.pos, "blank node %s in ground data: INSERT DATA / DELETE DATA take concrete triples only (skolemize with an IRI instead)", n.t)
	case subject && n.t.IsLiteral():
		return errAt(n.pos, "literal subject not allowed")
	}
	return nil
}
