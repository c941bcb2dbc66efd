package rdf

import (
	"cmp"
	"fmt"
	"sync"
)

// TermID is a dictionary-encoded RDF term. The zero value is never assigned
// to a real term, so it can safely be used as a sentinel ("NULL" in the
// paper's serialization vectors).
type TermID uint32

// NoTerm is the reserved sentinel meaning "no term" / NULL.
const NoTerm TermID = 0

// Dictionary maps RDF terms to dense integer IDs and back. It is safe for
// concurrent use; encoding takes a write lock only on first sight of a term.
//
// All gstored layers above this package exchange TermIDs; a single
// Dictionary instance is shared by every fragment of a distributed graph so
// IDs are globally consistent across sites (the paper's vertex IDs, e.g.
// "001", play the same role).
type Dictionary struct {
	mu    sync.RWMutex
	ids   map[string]TermID
	terms []Term // index 0 unused (NoTerm)
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{
		ids:   make(map[string]TermID),
		terms: make([]Term, 1), // reserve index 0 for NoTerm
	}
}

// Encode returns the ID for term, assigning a fresh one if needed.
//
// The ID space is 32-bit with 0 reserved for NoTerm, so a dictionary
// holds at most 2^32-1 distinct terms. Exhausting it panics loudly (see
// nextID) rather than silently wrapping the next ID onto NoTerm and
// aliasing existing terms.
func (d *Dictionary) Encode(t Term) TermID {
	var buf [KeyBuf]byte
	key := t.AppendTo(buf[:0])
	d.mu.RLock()
	id, ok := d.ids[string(key)]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[string(key)]; ok {
		return id
	}
	return d.add(string(key), t)
}

// add assigns the next ID to term t, whose canonical form is key. The
// caller holds the write lock, or the dictionary alone.
func (d *Dictionary) add(key string, t Term) TermID {
	id := nextID(uint64(len(d.terms)))
	d.ids[key] = id
	d.terms = append(d.terms, t)
	return id
}

// nextID converts the would-be slice index n into a TermID, refusing to
// wrap: term number 2^32 would silently alias NoTerm (and every later
// term an existing ID), turning an out-of-capacity condition into wrong
// query answers. A panic is deliberate — by the time the guard trips the
// process holds ~4 billion terms and no caller has a sane recovery; what
// matters is failing at the write that overflowed, not corrupting reads
// forever after.
func nextID(n uint64) TermID {
	if n > uint64(^TermID(0)) {
		panic(fmt.Sprintf("rdf: dictionary overflow: cannot assign term %d, TermID space is 32-bit (max %d terms)", n, ^TermID(0)))
	}
	return TermID(n)
}

// Lookup returns the ID for term without assigning one. The second result
// reports whether the term was present.
func (d *Dictionary) Lookup(t Term) (TermID, bool) {
	var buf [KeyBuf]byte
	key := t.AppendTo(buf[:0])
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.ids[string(key)]
	return id, ok
}

// Decode returns the term for id. Decoding NoTerm or an unassigned ID
// returns the zero Term and false.
func (d *Dictionary) Decode(id TermID) (Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == NoTerm || int(id) >= len(d.terms) {
		return Term{}, false
	}
	return d.terms[id], true
}

// MustDecode is Decode for IDs known to be valid; it panics otherwise.
func (d *Dictionary) MustDecode(id TermID) Term {
	t, ok := d.Decode(id)
	if !ok {
		panic(fmt.Sprintf("rdf: MustDecode of unknown TermID %d", id))
	}
	return t
}

// Len reports how many terms have been assigned IDs.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms) - 1
}

// Triple is a dictionary-encoded RDF triple ⟨subject, predicate, object⟩.
// In graph terms (Def. 1 of the paper) S and O are vertices and P is the
// edge label.
type Triple struct {
	S, P, O TermID
}

// Less orders triples lexicographically by (S, P, O); used for
// deterministic output and tests.
func (t Triple) Less(u Triple) bool {
	if t.S != u.S {
		return t.S < u.S
	}
	if t.P != u.P {
		return t.P < u.P
	}
	return t.O < u.O
}

// Compare orders triples as Less does, returning -1, 0 or +1.
func (t Triple) Compare(u Triple) int {
	return cmp.Or(cmp.Compare(t.S, u.S), cmp.Compare(t.P, u.P), cmp.Compare(t.O, u.O))
}

// Graph is a flat, dictionary-encoded triple multiset with its dictionary.
// It is the interchange format between generators/parsers and the store,
// partitioners and fragments.
type Graph struct {
	Dict    *Dictionary
	Triples []Triple
}

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph {
	return &Graph{Dict: NewDictionary()}
}

// Add encodes and appends one triple given as terms.
func (g *Graph) Add(s, p, o Term) {
	g.Triples = append(g.Triples, Triple{g.Dict.Encode(s), g.Dict.Encode(p), g.Dict.Encode(o)})
}

// AddIRIs appends one triple whose three positions are all IRIs.
func (g *Graph) AddIRIs(s, p, o string) {
	g.Add(NewIRI(s), NewIRI(p), NewIRI(o))
}

// Len reports the number of triples.
func (g *Graph) Len() int { return len(g.Triples) }
