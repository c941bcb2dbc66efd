package fragment

import (
	"fmt"

	"gstored/internal/rdf"
)

// Payload is the wire form of a Fragment: the two inputs of newFragment,
// which is everything a coordinator ships to the worker process that
// will host the fragment. Everything is TermID-level — the dictionary
// never travels; workers match and return rows as IDs and the
// coordinator resolves terms. Crossing edges, edge counts and extended
// vertices are not carried: the receiver derives them.
type Payload struct {
	ID int
	// Triples is E_i ∪ E_i^c — the full edge set the fragment's store
	// indexes, crossing replicas included — in (S,P,O) order.
	Triples []rdf.Triple
	// Internal is V_i in ascending ID order.
	Internal []rdf.TermID
}

// Payload extracts the wire form of f.
func (f *Fragment) Payload() *Payload {
	return &Payload{ID: f.ID, Triples: f.Store.Triples(), Internal: f.InternalVertices()}
}

// FromPayload rebuilds a Fragment from its wire form, which it treats as
// outside input: newFragment rejects an edge set that is out of order or
// holds an edge no vertex of Internal touches, and FromPayload a vertex
// of Internal that no edge touches (Build takes each internal vertex
// from the store together with its edges, so it needs no such check).
// The dictionary is the receiver's own (typically empty at a worker —
// local evaluation is pure TermID matching); it is not validated against
// the payload.
func FromPayload(p *Payload, dict *rdf.Dictionary) (*Fragment, error) {
	var internal vertexSet
	for _, v := range p.Internal {
		internal.add(v)
	}
	f, err := newFragment(p.ID, dict, nil, p.Triples, internal)
	if err != nil {
		return nil, err
	}
	for _, v := range p.Internal {
		if !f.Store.HasVertex(v) {
			return nil, fmt.Errorf("fragment %d: internal vertex %d has no edge", p.ID, v)
		}
	}
	return f, nil
}
