// Package candidates implements Section VI: assembling variables' internal
// candidates. Each site computes the internal candidate set C(Q, v) of
// every variable vertex, the coordinator unions the per-site sets and
// broadcasts the union, and the partial-evaluation stage uses it to
// discard extended-vertex bindings that are internal candidates at no site
// (Algorithm 4).
//
// C(Q, v) checks a vertex's own adjacency: the labels of v's query edges
// and the edges v shares with constants. A fragment holds every edge of an
// internal vertex (Definition 1) but only the crossing edges of an
// extended one, so the test is exact for internal vertices alone, and
// those are the ones a site reports.
//
// A site reports only its boundary candidates: those with a crossing edge
// that matches one of v's query edges (label and direction, and the
// constant at the far end if that end is one). This loses no binding the
// filter would admit: partial evaluation asks the filter about extended
// vertices only, an extended vertex u comes to bind v over a crossing
// edge matching one of v's query edges, and u's owner stores that edge
// too. Beside each set the site reports κ(v), its crossing-edge instances
// that match one of v's query edges on v's internal side at a vertex that
// is no candidate: each is a binding the union would reject at the far
// end's site. The coordinator broadcasts v's union only when those
// rejections, Σκ priced as partial matches (partial.MatchBytes), outweigh
// what the union costs every site beyond an empty slot; otherwise v goes
// down Dropped, and the sites run it unfiltered.
//
// A set travels in the smaller of two forms, decided per variable from
// the set itself. The list form is the sorted IDs, varint-delta coded: it
// is exact, so the filter built from it admits no false candidate. The
// bits form is the paper's fixed-length hashed bit vector, a Bloom filter
// with a single hash function: false positives only, never false
// negatives. Filtering is safe under either. ShipmentBytes, the RPC
// frames (AppendBinary / Decode) and the §IX model all price the one
// encoding of codec.go.
package candidates

import (
	"fmt"
	"math/bits"
	"slices"

	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/varint"
)

// DefaultBits is the default bit-vector length per variable (16 Ki bits,
// i.e. 2 KiB on the wire — "fixed length" per Section VI, sized for the
// repository's simulator-scale datasets; production deployments over
// billions of vertices would raise it).
const DefaultBits = 1 << 14

// BitVector is a fixed-length bit set addressed by hashed TermIDs.
type BitVector struct {
	bits []uint64
	n    int
}

// vectorWords is the word count of an n-bit vector: n must be positive
// (else DefaultBits) and is rounded up to a multiple of 64.
func vectorWords(n int) int {
	if n <= 0 {
		n = DefaultBits
	}
	return (n + 63) / 64
}

// NewBitVector returns an all-zero vector of n bits (see vectorWords).
func NewBitVector(n int) *BitVector {
	words := vectorWords(n)
	return &BitVector{bits: make([]uint64, words), n: words * 64}
}

// hash maps a term ID to a bit position; splitmix64 scrambles the dense
// dictionary IDs so consecutive IDs do not collide into runs.
func (b *BitVector) hash(id rdf.TermID) int {
	x := uint64(id)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(b.n))
}

// Set marks id's bit.
func (b *BitVector) Set(id rdf.TermID) {
	i := b.hash(id)
	b.bits[i/64] |= 1 << uint(i%64)
}

// Test reports whether id's bit is set.
func (b *BitVector) Test(id rdf.TermID) bool {
	i := b.hash(id)
	return b.bits[i/64]&(1<<uint(i%64)) != 0
}

// Or folds other into b. The vectors must have equal length.
func (b *BitVector) Or(other *BitVector) error {
	if other == nil {
		return nil
	}
	if b.n != other.n {
		return fmt.Errorf("candidates: OR of %d-bit and %d-bit vectors", b.n, other.n)
	}
	for i := range b.bits {
		b.bits[i] |= other.bits[i]
	}
	return nil
}

// Form is the encoding a candidate set travels in, or, for a union, that
// it did not travel.
type Form int

const (
	List    Form = iota // sorted varint-delta IDs: exact
	Bits                // hashed bit vector: false positives only
	Dropped             // a union not broadcast: the sites run the variable unfiltered
	NumForms
)

// FormNames are the forms' report and label names.
var FormNames = [NumForms]string{"list", "bits", "dropped"}

func (f Form) String() string { return FormNames[f] }

// Set is one variable's candidate set in the smaller of its two forms.
type Set struct {
	ids  []rdf.TermID // List: strictly increasing
	vec  *BitVector   // Bits; nil in the list form
	size int          // encoded length in bytes
}

// newSet holds ids (strictly increasing) as a list when that encodes
// smaller than a bits-long vector, else hashed into one.
func newSet(ids []rdf.TermID, bits int) *Set {
	if size := listSize(ids); size < vectorSize(vectorWords(bits)) {
		return &Set{ids: ids, size: size}
	}
	return hashedSet(ids, bits)
}

// hashedSet hashes ids into a bits-long vector.
func hashedSet(ids []rdf.TermID, bits int) *Set {
	vec := NewBitVector(bits)
	for _, u := range ids {
		vec.Set(u)
	}
	return &Set{vec: vec, size: vectorSize(len(vec.bits))}
}

// Form reports which form the set holds.
func (s *Set) Form() Form {
	if s.vec != nil {
		return Bits
	}
	return List
}

// Count is the number of candidates of a list, the number of set bits of
// a vector.
func (s *Set) Count() int {
	if s.vec == nil {
		return len(s.ids)
	}
	c := 0
	for _, w := range s.vec.bits {
		c += bits.OnesCount64(w)
	}
	return c
}

// Has reports whether u may be a candidate: exactly for a list, up to
// hash collisions for a vector.
func (s *Set) Has(u rdf.TermID) bool {
	if s.vec != nil {
		return s.vec.Test(u)
	}
	_, ok := slices.BinarySearch(s.ids, u)
	return ok
}

// SiteVectors holds one site's candidate sets — or their union — indexed
// by query vertex (nil for constant vertices, and in a union for the
// variables not broadcast).
type SiteVectors struct {
	Sets []*Set
	// Rejects is a site's κ per query vertex (see the package comment);
	// nil in a union.
	Rejects []int
}

// ComputeSite finds, for every variable query vertex, the boundary
// internal candidates in fragment f and κ (the site half of Algorithm 4);
// bits is the length of the hashed form. κ is the crossing-edge count
// that f keeps per label and internal end, less the matching crossing
// edges of the candidates, so its cost follows C(Q, v), not the edges. A
// candidate's crossing edges are counted on the adjacency lists the
// signature test read (Store.CandidatesFunc), not looked up again.
func ComputeSite(f *fragment.Fragment, q *query.Graph, bits int) *SiteVectors {
	sv := &SiteVectors{Sets: make([]*Set, len(q.Vertices)), Rejects: make([]int, len(q.Vertices))}
	inc := q.IncidentEdges()
	for qv, v := range q.Vertices {
		if !v.IsVar() {
			continue
		}
		// A crossing edge is no self-loop: only an edge to another vertex
		// can bind qv over one.
		edges := slices.DeleteFunc(inc[qv], func(qe int) bool { return q.Edges[qe].From == q.Edges[qe].To })
		rejects := 0
		for _, qe := range edges {
			rejects += crossingEdges(f, q, q.Edges[qe], qv)
		}
		// Store.CandidatesFunc is exact for internal vertices only: the others
		// are dropped before the signature test reads their adjacency.
		boundary := f.Store.CandidatesFunc(q, qv, f.IsInternal, func(u rdf.TermID, adj [][]store.HalfEdge) bool {
			d := 0
			for _, qe := range edges {
				_, far := farEnd(q, q.Edges[qe], qv)
				d += crossingDegree(f, far, adj[qe])
			}
			rejects -= d
			return d > 0
		})
		sv.Sets[qv], sv.Rejects[qv] = newSet(boundary, bits), rejects
	}
	return sv
}

// crossingEdges counts the crossing-edge instances at f that match query
// edge e with qv's end internal: f's count by label and side, or, when
// the far end is a constant c that f does not own, c's edges over e at
// f, each a crossing edge with an internal far end.
func crossingEdges(f *fragment.Fragment, q *query.Graph, e query.Edge, qv int) int {
	out, far := farEnd(q, e, qv)
	if far.IsVar() {
		return f.CrossingCount(e.Label, out) // rdf.NoTerm under a label variable: any label
	}
	if f.IsInternal(far.Const) {
		return 0
	}
	return f.Store.Degree(far.Const, !out, e.Label)
}

// crossingDegree counts the crossing edges among an internal vertex's
// half-edges adj over a query edge whose far end is far.
func crossingDegree(f *fragment.Fragment, far query.Vertex, adj []store.HalfEdge) int {
	n := 0
	for _, he := range adj {
		if !f.IsInternal(he.V) && (far.IsVar() || he.V == far.Const) {
			n++
		}
	}
	return n
}

// farEnd reports whether qv is e's subject, and e's other vertex.
func farEnd(q *query.Graph, e query.Edge, qv int) (out bool, far query.Vertex) {
	if e.From == qv {
		return true, q.Vertices[e.To]
	}
	return false, q.Vertices[e.From]
}

// Union merges the per-site sets per variable (the coordinator half of
// Algorithm 4) and decides which to broadcast. Internal candidates are
// disjoint across sites, so the union of lists is their merge; it stays a
// list while that is the smaller form and is hashed into a bits-long
// vector otherwise, or when some site sent a vector — all of which must
// be bits long.
//
// A variable's slot stays nil, so that the sites run it unfiltered, when
// some site sent no set for it (a filter built without that site's
// candidates would reject them), or when the union does not pay: its
// slot costs each of the k sites size − 1 bytes more than an empty one,
// and it is broadcast only when the sites' Σκ, priced as partial matches,
// exceeds that. Reports without κ (Rejects nil) keep every union.
func Union(sites []*SiteVectors, q *query.Graph, bits int) (*SiteVectors, error) {
	out := &SiteVectors{Sets: make([]*Set, len(q.Vertices))}
	price, k := partial.MatchBytes(q), len(sites)
	for qv, v := range q.Vertices {
		if !v.IsVar() {
			continue
		}
		var ids []rdf.TermID
		var vecs []*BitVector
		whole, priced, rejects := true, true, 0
		for i, s := range sites {
			if qv >= len(s.Sets) {
				return nil, fmt.Errorf("candidates: site %d sent %d sets for %d query vertices", i, len(s.Sets), len(q.Vertices))
			}
			set := s.Sets[qv]
			if set == nil {
				whole = false
				continue
			}
			ids = append(ids, set.ids...)
			if set.vec != nil {
				vecs = append(vecs, set.vec)
			}
			if s.Rejects == nil {
				priced = false
			} else {
				rejects += s.Rejects[qv]
			}
		}
		if !whole {
			continue
		}
		// A list takes more than a byte per ID: past the vector's size no
		// merge can be the smaller form, and hashing needs no order.
		var u *Set
		if len(vecs) == 0 && len(ids) < vectorSize(vectorWords(bits)) {
			slices.Sort(ids)
			u = newSet(slices.Compact(ids), bits)
		} else {
			u = hashedSet(ids, bits)
			for _, vec := range vecs {
				if err := u.vec.Or(vec); err != nil {
					return nil, err
				}
			}
		}
		if !priced || price*rejects > k*(u.size-1) {
			out.Sets[qv] = u
		}
	}
	return out, nil
}

// Filter adapts the union to the partial-evaluation extended-vertex
// filter: binding query vertex qv to extended vertex u is allowed only if
// u is an internal candidate somewhere. Constant query vertices are never
// filtered.
func (s *SiteVectors) Filter() func(qv int, u rdf.TermID) bool {
	return func(qv int, u rdf.TermID) bool {
		if qv >= len(s.Sets) || s.Sets[qv] == nil {
			return true
		}
		return s.Sets[qv].Has(u)
	}
}

// VarStat is one query variable's share of a stage-0 exchange.
type VarStat struct {
	Var       string // the variable's name
	Form      Form   // of the union, Dropped when it was not broadcast
	Count     int    // the union's candidates (list) or set bits (bits); 0 dropped
	Rejects   int    // the sites' Σκ: the bindings they reported the union would reject
	BytesUp   int64  // the sites' sets and κ, to the coordinator
	BytesDown int64  // the union, back to every site (an empty slot each, dropped)
}

// Exchange attributes the bytes of one exchange — every site's sets up,
// the union down to each — to the query's variables. framing is the rest
// of the encodings: slot counts and the constant vertices' empty slots.
// vars and framing sum to the ShipmentBytes of the messages.
func Exchange(q *query.Graph, sites []*SiteVectors, union *SiteVectors) (vars []VarStat, framing int64) {
	k := int64(len(sites))
	framing = k * int64(union.ShipmentBytes())
	for _, s := range sites {
		framing += int64(s.ShipmentBytes())
	}
	for qv, v := range q.Vertices {
		if !v.IsVar() {
			continue
		}
		st := VarStat{Var: q.Vars[v.Var], Form: Dropped, BytesDown: k}
		if u := union.Sets[qv]; u != nil {
			st.Form, st.Count, st.BytesDown = u.Form(), u.Count(), k*int64(u.size)
		}
		for _, s := range sites {
			if set := s.Sets[qv]; set != nil {
				st.BytesUp += int64(set.size)
				if s.Rejects != nil {
					st.Rejects += s.Rejects[qv]
					st.BytesUp += int64(varint.Len(uint64(s.Rejects[qv])))
				}
			}
		}
		framing -= st.BytesUp + st.BytesDown
		vars = append(vars, st)
	}
	return vars, framing
}
