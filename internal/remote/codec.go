package remote

import (
	"fmt"
	"math"

	"gstored/internal/candidates"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/varint"
)

// The body of a frame: one tag byte, then every field of the struct in
// declaration order, whatever the op (DESIGN.md "The transport" has the
// table). A field travels only when its reader uses it and cannot work it
// out itself: a site evaluates a query's pattern, so of a query.Graph
// only the variable count, the vertices and the edges travel, and a reply
// does not echo the site, address or epoch the caller named. Integers are
// shortest-form uvarints (package varint), zig-zag coded where
// query.NoVar is a value; TermIDs are uvarints bounded to 32 bits; a
// slice is its element count and then its elements, and decodes to nil
// when it is empty; a string is its length and its bytes; bools and the
// presence of an optional field are bits of one flags byte; the two
// durations are fixed 8 bytes, so a frame's size does not depend on how
// long anything took. Row batches and partial matches also carry their
// total term count up front, which is what lets the decoder make one
// allocation and carve the rows and vectors out of it. A value has one
// encoding: flags have no spare bits, totals must add up, nothing follows
// the last field.
//
// Decoding reads a socket, so it trusts nothing (varint.Reader): a count
// buys an allocation only after it has been checked against the bytes
// left, and nothing decoded aliases the read buffer.

// wireVersion is bumped by any change to the encoding; it travels in the
// tag byte so that builds which disagree fail the call by name instead of
// misreading each other.
const wireVersion = 7

const (
	tagRequest  = wireVersion << 1
	tagResponse = wireVersion<<1 | 1
)

// checkTag cuts the tag byte and requires it to be want.
func checkTag(r *varint.Reader, want byte) {
	switch tag := r.Byte(); {
	case r.Err() != nil:
	case tag>>1 != wireVersion:
		r.Fail(fmt.Errorf("remote: peer speaks wire version %d, this build speaks %d", tag>>1, wireVersion))
	case tag != want:
		r.Fail(fmt.Errorf("remote: frame tag %#x where %#x was expected", tag, want))
	}
}

// Flag bits of the two flags bytes.
const (
	reqHasQuery = 1 << iota
	reqStar
	reqHasUnion
	reqHasFragment
	reqHasDelta
	reqFlagsEnd
)

const (
	respDone = 1 << iota
	respHasVectors
	respFlagsEnd
)

func bit(set bool, b byte) byte {
	if set {
		return b
	}
	return 0
}

// flags cuts a flags byte with no bit at or above end set.
func flags(r *varint.Reader, end byte) byte {
	f := r.Byte()
	if f >= end {
		r.Fail(fmt.Errorf("remote: unknown flag bits %#x", f))
		return 0
	}
	return f
}

func appendTerm(b []byte, t rdf.TermID) []byte { return varint.Append(b, uint64(t)) }

func cutTerm(r *varint.Reader) rdf.TermID { return rdf.TermID(r.Upto(math.MaxUint32)) }

func appendString(b []byte, s string) []byte { return append(varint.AppendInt(b, len(s)), s...) }

func cutString(r *varint.Reader) string { return string(r.Bytes(r.Count(1))) }

func appendInts(b []byte, ns []int) []byte {
	b = varint.AppendInt(b, len(ns))
	for _, n := range ns {
		b = varint.AppendInt(b, n)
	}
	return b
}

func cutInts(r *varint.Reader) []int {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	ns := make([]int, n)
	for i := range ns {
		ns[i] = r.Int()
	}
	return ns
}

// slab is one allocation that a frame's variable-length vectors are
// carved from. The carved slices are capped, so appending to one cannot
// write into its neighbour.
type slab[T any] struct {
	free []T
}

// newSlab cuts the total the frame announces; each element takes at least
// minSize bytes of what follows.
func newSlab[T any](r *varint.Reader, minSize int) slab[T] {
	return slab[T]{free: make([]T, r.Count(minSize))}
}

// carve cuts a length and takes that many elements off the slab (nil for
// none); a length past what the frame announced fails r.
func (s *slab[T]) carve(r *varint.Reader) []T {
	n := r.Int()
	if n > len(s.free) {
		r.Fail(fmt.Errorf("remote: a vector of %d elements overruns the %d its frame announced", n, len(s.free)))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// spent fails r unless the whole slab was carved.
func (s *slab[T]) spent(r *varint.Reader) {
	if len(s.free) != 0 {
		r.Fail(fmt.Errorf("remote: frame announced %d more elements than it holds", len(s.free)))
	}
}

func appendTerms(b []byte, ts []rdf.TermID) []byte {
	b = varint.AppendInt(b, len(ts))
	for _, t := range ts {
		b = appendTerm(b, t)
	}
	return b
}

func cutTerms(r *varint.Reader, s *slab[rdf.TermID]) []rdf.TermID {
	ts := s.carve(r)
	for i := range ts {
		ts[i] = cutTerm(r)
	}
	return ts
}

func (q *request) appendTo(b []byte) []byte {
	b = append(b, tagRequest)
	b = varint.AppendInt(b, q.Op)
	b = varint.AppendInt(b, q.Site)
	b = varint.Append(b, q.Epoch)
	b = varint.AppendUint64(b, uint64(q.TimeoutNS))
	b = append(b, bit(q.Query != nil, reqHasQuery)|bit(q.Star, reqStar)|
		bit(q.Union != nil, reqHasUnion)|bit(q.Fragment != nil, reqHasFragment)|bit(q.Delta != nil, reqHasDelta))
	b = varint.AppendInt(b, q.Bits)
	b = varint.AppendInt(b, q.Center)
	b = appendInts(b, q.Order)
	b = appendInts(b, q.EdgeRank)
	b = varint.Append(b, q.Base)
	if q.Query != nil {
		b = appendQuery(b, q.Query)
	}
	if q.Union != nil {
		b = appendVectors(b, q.Union)
	}
	if q.Fragment != nil {
		b = appendPayload(b, q.Fragment)
	}
	if q.Delta != nil {
		b = appendShare(b, q.Delta)
	}
	return b
}

// decode fills q from a frame body; q must be zero.
func (q *request) decode(body []byte) error {
	r := varint.NewReader(body)
	checkTag(r, tagRequest)
	q.Op = r.Int()
	q.Site = r.Int()
	q.Epoch = r.Uvarint()
	q.TimeoutNS = int64(r.Uint64())
	f := flags(r, reqFlagsEnd)
	q.Star = f&reqStar != 0
	q.Bits = r.Int()
	q.Center = r.Int()
	q.Order = cutInts(r)
	q.EdgeRank = cutInts(r)
	q.Base = r.Uvarint()
	if f&reqHasQuery != 0 {
		q.Query = cutQuery(r)
	}
	if f&reqHasUnion != 0 {
		q.Union = cutVectors(r)
	}
	if f&reqHasFragment != 0 {
		q.Fragment = cutPayload(r)
	}
	if f&reqHasDelta != 0 {
		q.Delta = cutShare(r)
	}
	return r.Done()
}

// appendQuery appends what a site reads of a query: its pattern. The
// variables travel as their count alone, which sizes the binding slots;
// names, projection and solution modifiers are the coordinator's, and a
// placeholder constant is just an ID no fragment holds.
func appendQuery(b []byte, g *query.Graph) []byte {
	b = varint.AppendInt(b, len(g.Vars))
	b = varint.AppendInt(b, len(g.Vertices))
	for _, v := range g.Vertices {
		b = varint.AppendSigned(b, int64(v.Var))
		b = appendTerm(b, v.Const)
	}
	b = varint.AppendInt(b, len(g.Edges))
	for _, e := range g.Edges {
		b = varint.AppendInt(b, e.From)
		b = varint.AppendInt(b, e.To)
		b = appendTerm(b, e.Label)
		b = varint.AppendSigned(b, int64(e.LabelVar))
	}
	return b
}

// cutQuery cuts a query whose variables are unnamed. Their count takes no
// bytes per element, so it is bounded by what a valid query can hold
// (MaxSize vertex and MaxSize edge-label variables) before it buys the
// names.
func cutQuery(r *varint.Reader) *query.Graph {
	g := &query.Graph{}
	if n := r.Upto(2 * query.MaxSize); n > 0 {
		g.Vars = make([]string, n)
	}
	if n := r.Count(2); n > 0 {
		g.Vertices = make([]query.Vertex, n)
		for i := range g.Vertices {
			g.Vertices[i] = query.Vertex{Var: int(r.Signed()), Const: cutTerm(r)}
		}
	}
	if n := r.Count(4); n > 0 {
		g.Edges = make([]query.Edge, n)
		for i := range g.Edges {
			g.Edges[i] = query.Edge{From: r.Int(), To: r.Int(), Label: cutTerm(r), LabelVar: int(r.Signed())}
		}
	}
	return g
}

// appendVectors appends candidate sets as the stage-0 encoding, length
// first: the bytes ShipmentBytes prices, unchanged.
func appendVectors(b []byte, sv *candidates.SiteVectors) []byte {
	return sv.AppendBinary(varint.AppendInt(b, sv.ShipmentBytes()))
}

func cutVectors(r *varint.Reader) *candidates.SiteVectors {
	sv, err := candidates.Decode(r.Bytes(r.Count(1)))
	if err != nil && r.Err() == nil {
		r.Fail(err)
	}
	return sv
}

// appendPayload appends a fragment's wire form.
func appendPayload(b []byte, p *fragment.Payload) []byte {
	return appendIDs(appendTriples(varint.AppendInt(b, p.ID), p.Triples), p.Internal)
}

func cutPayload(r *varint.Reader) *fragment.Payload {
	p := &fragment.Payload{ID: r.Int()}
	p.Triples = cutTriples(r)
	p.Internal = cutIDs(r)
	return p
}

// appendShare appends a fragment's share of an update.
func appendShare(b []byte, d *fragment.Delta) []byte {
	return appendIDs(appendTriples(appendTriples(b, d.Inserted), d.Deleted), d.Owned)
}

func cutShare(r *varint.Reader) *fragment.Delta {
	d := &fragment.Delta{}
	d.Inserted = cutTriples(r)
	d.Deleted = cutTriples(r)
	d.Owned = cutIDs(r)
	return d
}

// appendTriples appends a triple list. The lists a fragment travels in
// arrive sorted (the receiver checks, not this codec), so subjects travel
// as zig-zag differences from their predecessor: a byte each where the
// plain ID takes three.
func appendTriples(b []byte, ts []rdf.Triple) []byte {
	b = varint.AppendInt(b, len(ts))
	var prev rdf.TermID
	for _, t := range ts {
		b = varint.AppendSigned(b, int64(t.S)-int64(prev))
		b = appendTerm(appendTerm(b, t.P), t.O)
		prev = t.S
	}
	return b
}

func cutTriples(r *varint.Reader) []rdf.Triple {
	n := r.Count(3)
	if n == 0 {
		return nil
	}
	ts := make([]rdf.Triple, n)
	var prev rdf.TermID
	for i := range ts {
		prev = cutDiff(r, prev)
		ts[i] = rdf.Triple{S: prev, P: cutTerm(r), O: cutTerm(r)}
	}
	return ts
}

// appendIDs appends a sorted vertex list as zig-zag differences.
func appendIDs(b []byte, vs []rdf.TermID) []byte {
	b = varint.AppendInt(b, len(vs))
	var prev rdf.TermID
	for _, v := range vs {
		b = varint.AppendSigned(b, int64(v)-int64(prev))
		prev = v
	}
	return b
}

func cutIDs(r *varint.Reader) []rdf.TermID {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	vs := make([]rdf.TermID, n)
	var prev rdf.TermID
	for i := range vs {
		prev = cutDiff(r, prev)
		vs[i] = prev
	}
	return vs
}

// cutDiff cuts one zig-zag difference and applies it to prev.
func cutDiff(r *varint.Reader, prev rdf.TermID) rdf.TermID {
	v := int64(prev) + r.Signed()
	if v < 0 || v > math.MaxUint32 {
		r.Fail(fmt.Errorf("remote: ID difference leaves the ID range"))
		return 0
	}
	return rdf.TermID(v)
}

func (p *response) appendTo(b []byte) []byte {
	b = append(b, tagResponse)
	b = append(b, bit(p.Done, respDone)|bit(p.Vectors != nil, respHasVectors))
	terms := 0
	for _, row := range p.Rows {
		terms += len(row)
	}
	b = varint.AppendInt(b, len(p.Rows))
	b = varint.AppendInt(b, terms)
	for _, row := range p.Rows {
		b = appendTerms(b, row)
	}
	if p.Vectors != nil {
		b = appendVectors(b, p.Vectors)
	}
	b = varint.AppendInt(b, p.LocalMatches)
	b = appendMatches(b, p.Matches)
	b = varint.AppendInt(b, p.Tasks)
	b = varint.AppendUint64(b, uint64(p.BusyNS))
	b = varint.AppendUint64(b, uint64(p.EvalNS))
	b = varint.AppendInt(b, p.Fragments)
	b = varint.AppendInt(b, int(p.ErrKind))
	b = appendString(b, p.ErrMsg)
	return b
}

// decode fills p from a frame body; p must be zero.
func (p *response) decode(body []byte) error {
	r := varint.NewReader(body)
	checkTag(r, tagResponse)
	f := flags(r, respFlagsEnd)
	p.Done = f&respDone != 0
	if n := r.Count(1); n > 0 {
		p.Rows = make([][]rdf.TermID, n)
	}
	terms := newSlab[rdf.TermID](r, 1)
	for i := range p.Rows {
		p.Rows[i] = cutTerms(r, &terms)
	}
	terms.spent(r)
	if f&respHasVectors != 0 {
		p.Vectors = cutVectors(r)
	}
	p.LocalMatches = r.Int()
	p.Matches = cutMatches(r)
	p.Tasks = r.Int()
	p.BusyNS = int64(r.Uint64())
	p.EvalNS = int64(r.Uint64())
	p.Fragments = r.Int()
	p.ErrKind = errKind(r.Upto(uint64(numErrKinds - 1)))
	p.ErrMsg = cutString(r)
	return r.Done()
}

// A match takes at least four bytes: Frag, two lengths and Sign. Its
// crossing edges are derived data and do not travel; the client checks
// the fields they are derived from against the query (partial.Check).
const minMatch = 4

func appendMatches(b []byte, ms []*partial.Match) []byte {
	terms := 0
	for _, m := range ms {
		terms += len(m.Vec) + len(m.EdgeVars)
	}
	b = varint.AppendInt(b, len(ms))
	b = varint.AppendInt(b, terms)
	for _, m := range ms {
		b = varint.AppendInt(b, m.Frag)
		b = appendTerms(b, m.Vec)
		b = appendTerms(b, m.EdgeVars)
		b = varint.Append(b, m.Sign)
	}
	return b
}

func cutMatches(r *varint.Reader) []*partial.Match {
	n := r.Count(minMatch)
	terms := newSlab[rdf.TermID](r, 1)
	ms := make([]partial.Match, n)
	var out []*partial.Match
	if n > 0 {
		out = make([]*partial.Match, n)
	}
	for i := range ms {
		m := &ms[i]
		m.Frag = r.Int()
		m.Vec = cutTerms(r, &terms)
		m.EdgeVars = cutTerms(r, &terms)
		m.Sign = r.Uvarint()
		out[i] = m
	}
	terms.spent(r)
	return out
}
