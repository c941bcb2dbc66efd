package remote

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

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
// only the variable count, the vertices and the edges travel; it derives
// the star path and the expansion rank from that pattern and the plan
// order, and builds hashed candidate vectors of the one length both ends
// know. A reply does not echo the site, address or epoch the caller
// named, nor count the rows the caller received. Integers are
// shortest-form uvarints (package varint), zig-zag coded where
// query.NoVar is a value; TermIDs are uvarints bounded to 32 bits; a
// slice is its element count and then its elements, and decodes to nil
// when it is empty; a string is its length and its bytes; bools and the
// presence of an optional field are bits of one flags byte; the two
// durations are fixed 8 bytes, so a frame's size does not depend on how
// long anything took. Row batches also carry their total term count up
// front, which is what lets the decoder make one allocation and carve the
// rows out of it; a match travels as its changes from the match before
// (appendSet), and a set decodes into one allocation a column. A value
// has one encoding: flags have no spare bits, totals must add up, a match
// marks just the fields it changes, nothing follows the last field.
//
// Decoding reads a socket, so it trusts nothing (varint.Reader): a count
// buys an allocation only after it has been checked against the bytes
// left, and nothing decoded aliases the read buffer.

// wireVersion is bumped by any change to the encoding; it travels in the
// tag byte so that builds which disagree fail the call by name instead of
// misreading each other.
const wireVersion = 10

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

func appendInts(b []byte, ns []int) []byte { return appendList(b, ns, varint.AppendInt) }

func cutInts(r *varint.Reader) []int { return cutColumn(r.Count(1), r.Int) }

// appendList appends a slice: its element count, then each element as
// each appends it.
func appendList[T any](b []byte, ts []T, each func([]byte, T) []byte) []byte {
	b = varint.AppendInt(b, len(ts))
	for _, t := range ts {
		b = each(b, t)
	}
	return b
}

// cutColumn cuts n elements with cut, nil for none.
func cutColumn[T any](n int, cut func() T) []T {
	if n == 0 {
		return nil
	}
	ts := make([]T, n)
	for i := range ts {
		ts[i] = cut()
	}
	return ts
}

func (q *request) appendTo(b []byte) []byte {
	b = append(b, tagRequest)
	b = varint.AppendInt(b, q.Op)
	b = varint.AppendInt(b, q.Site)
	b = varint.Append(b, q.Epoch)
	b = varint.AppendUint64(b, uint64(q.TimeoutNS))
	b = append(b, bit(q.Query != nil, reqHasQuery)|bit(q.Union != nil, reqHasUnion)|
		bit(q.Fragment != nil, reqHasFragment)|bit(q.Delta != nil, reqHasDelta))
	b = appendInts(b, q.Order)
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
	q.Order = cutInts(r)
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
	b = appendList(b, g.Vertices, func(b []byte, v query.Vertex) []byte {
		return appendTerm(varint.AppendSigned(b, int64(v.Var)), v.Const)
	})
	return appendList(b, g.Edges, func(b []byte, e query.Edge) []byte {
		b = varint.AppendInt(varint.AppendInt(b, e.From), e.To)
		return varint.AppendSigned(appendTerm(b, e.Label), int64(e.LabelVar))
	})
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
	g.Vertices = cutColumn(r.Count(2), func() query.Vertex {
		return query.Vertex{Var: int(r.Signed()), Const: cutTerm(r)}
	})
	g.Edges = cutColumn(r.Count(4), func() query.Edge {
		return query.Edge{From: r.Int(), To: r.Int(), Label: cutTerm(r), LabelVar: int(r.Signed())}
	})
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
	var prev rdf.TermID
	return appendList(b, ts, func(b []byte, t rdf.Triple) []byte {
		b, prev = varint.AppendSigned(b, int64(t.S)-int64(prev)), t.S
		return appendTerm(appendTerm(b, t.P), t.O)
	})
}

func cutTriples(r *varint.Reader) []rdf.Triple {
	var prev rdf.TermID
	return cutColumn(r.Count(3), func() rdf.Triple {
		prev = cutDiff(r, prev)
		return rdf.Triple{S: prev, P: cutTerm(r), O: cutTerm(r)}
	})
}

// appendIDs appends a sorted vertex list as zig-zag differences.
func appendIDs(b []byte, vs []rdf.TermID) []byte {
	var prev rdf.TermID
	return appendList(b, vs, func(b []byte, v rdf.TermID) []byte {
		b, prev = varint.AppendSigned(b, int64(v)-int64(prev)), v
		return b
	})
}

func cutIDs(r *varint.Reader) []rdf.TermID {
	var prev rdf.TermID
	return cutColumn(r.Count(1), func() rdf.TermID {
		prev = cutDiff(r, prev)
		return prev
	})
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
		b = appendList(b, row, appendTerm)
	}
	if p.Vectors != nil {
		b = appendVectors(b, p.Vectors)
	}
	b = appendSet(b, &p.Set)
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
	// One allocation holds every row, each capped so that appending to
	// one cannot write into its neighbour.
	terms := make([]rdf.TermID, r.Count(1))
	for i := range p.Rows {
		n := r.Int()
		if n > len(terms) {
			r.Fail(fmt.Errorf("remote: a row of %d terms overruns the %d its frame announced", n, len(terms)))
			break
		}
		if n > 0 {
			p.Rows[i], terms = terms[:n:n], terms[n:]
		}
		for j := range p.Rows[i] {
			p.Rows[i][j] = cutTerm(r)
		}
	}
	if len(terms) != 0 {
		r.Fail(fmt.Errorf("remote: frame announced %d more terms than its rows hold", len(terms)))
	}
	if f&respHasVectors != 0 {
		p.Vectors = cutVectors(r)
	}
	p.Set = cutSet(r)
	p.Tasks = r.Int()
	p.BusyNS = int64(r.Uint64())
	p.EvalNS = int64(r.Uint64())
	p.Fragments = r.Int()
	p.ErrKind = errKind(r.Upto(uint64(numErrKinds - 1)))
	p.ErrMsg = cutString(r)
	return r.Done()
}

// appendSet appends a set of partial matches: its vector stride, its
// label stride (only beside a vector stride, so every other op's zero set
// is two bytes), its match count, then each match as its changes from the
// one before (all zeros before the first): a bitmap marking the changed
// fields — bit 0 the sign, bit 1+c slot c of the vector and label slots
// end to end — then the new sign and each changed slot's zig-zag
// difference. The fragment and the crossing edges stay home.
func appendSet(b []byte, s *partial.Set) []byte {
	b = varint.AppendInt(b, s.Stride)
	if s.Stride > 0 {
		b = varint.AppendInt(b, s.LabelStride)
	}
	b = varint.AppendInt(b, s.Len())
	var sign uint64
	var row [3 * query.MaxSize]rdf.TermID // the last match's slots, as many as a query holds
	var blank [(3*query.MaxSize + 8) / 8]byte
	bitmap := blank[:(s.Stride+s.LabelStride+8)/8]
	for i, next := range s.Sign {
		at := len(b)
		b = append(b, bitmap...)
		if next != sign {
			b[at], sign = 1, next
			b = varint.Append(b, next)
		}
		vec, labels := s.At(i)
		b = appendChanges(b, at, 1, vec, row[:s.Stride])
		if s.LabelStride > 0 {
			b = appendChanges(b, at, 1+s.Stride, labels, row[s.Stride:])
		}
	}
	return b
}

// appendChanges appends each slot of cur that differs from the one above
// it as the difference, marks it from bitmap bit first on, and moves it up.
func appendChanges(b []byte, at, first int, cur, above []rdf.TermID) []byte {
	for c, t := range cur {
		if t != above[c] {
			f := uint(first + c)
			b[at+int(f/8)] |= 1 << (f % 8)
			b, above[c] = varint.AppendSigned(b, int64(t)-int64(above[c])), t
		}
	}
	return b
}

// cutSet bounds the strides by what a query holds (Check holds them to
// the query's), so no match count times them overflows.
func cutSet(r *varint.Reader) partial.Set {
	var s partial.Set
	if s.Stride = int(r.Upto(query.MaxSize)); s.Stride > 0 {
		s.LabelStride = int(r.Upto(2 * query.MaxSize))
	}
	slots := s.Stride + s.LabelStride
	n := r.Count((slots + 8) / 8) // a match takes its bitmap at least
	s.Sign, s.Vec, s.EdgeVars = slices.Grow(s.Sign, n), slices.Grow(s.Vec, n*s.Stride), slices.Grow(s.EdgeVars, n*s.LabelStride)
	var sign uint64
	var row [3 * query.MaxSize]rdf.TermID // the last match's slots
	for i := range n {
		for j, x := range r.Bytes((slots + 8) / 8) {
			for ; x != 0; x &= x - 1 {
				if c := 8*j + bits.TrailingZeros8(x) - 1; c < 0 {
					prev := sign
					if sign = r.Uvarint(); sign == prev {
						r.Fail(fmt.Errorf("remote: match %d marks its sign changed but repeats it", i))
					}
				} else if c >= slots {
					r.Fail(fmt.Errorf("remote: match %d marks a field past its %d", i, 1+slots))
				} else {
					prev := row[c]
					if row[c] = cutDiff(r, prev); row[c] == prev {
						r.Fail(fmt.Errorf("remote: match %d marks slot %d changed but repeats it", i, c))
					}
				}
			}
		}
		s.Sign = append(s.Sign, sign)
		s.Vec = append(s.Vec, row[:s.Stride]...)
		s.EdgeVars = append(s.EdgeVars, row[s.Stride:slots]...)
	}
	return s
}
