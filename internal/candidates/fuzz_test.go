package candidates

// Native fuzz targets for stage 0. The decoder reads bytes off a socket:
// arbitrary input must decode or fail without a panic, what decodes must
// hold no more than the input could carry and re-encode to the same
// bytes, and whatever the encoder produces must decode to the sets it
// was given. ComputeSite must report what the package comment defines.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// setsFrom derives a SiteVectors from fuzz input: each byte pair is a gap
// to the next ID, a zero gap closes the slot (every third closed slot is
// left nil), and the first byte picks the vector length, so short vectors
// push longer slots into the bits form, and whether the sets are a site's
// report, whose κ is then each set's ID sum.
func setsFrom(data []byte) *SiteVectors {
	sv := &SiteVectors{}
	if len(data) == 0 {
		return sv
	}
	bits := 64 * (1 + int(data[0])%8)
	var ids []rdf.TermID
	var prev rdf.TermID
	for i := 1; i+1 < len(data); i += 2 {
		gap := rdf.TermID(data[i])<<8 | rdf.TermID(data[i+1])
		if gap == 0 {
			if len(sv.Sets)%3 == 2 {
				sv.Sets = append(sv.Sets, nil)
			}
			sv.Sets = append(sv.Sets, newSet(ids, bits))
			ids, prev = nil, 0
			continue
		}
		prev += gap
		ids = append(ids, prev)
	}
	sv.Sets = append(sv.Sets, newSet(ids, bits))
	if data[0]&0x80 != 0 {
		sv.Rejects = make([]int, len(sv.Sets))
		for i, set := range sv.Sets {
			if set == nil {
				continue
			}
			for _, u := range set.ids {
				sv.Rejects[i] += int(u)
			}
		}
	}
	return sv
}

func FuzzSiteVectorsDecode(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{0},
		{1, 2},
		{3, 0, 2, 5, 3, 1, 200, 1},
		{2, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8, 3, 9},
		{0, 0, 1, 0, 2, 0, 0, 0, 0, 1, 0},
		{1, 0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		{0x81, 0, 2, 5, 0, 0, 3, 1},
		{3, 2, 5, 2, 0, 7},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Encoder output round-trips.
		want := setsFrom(data)
		enc := want.AppendBinary(nil)
		if want.ShipmentBytes() != len(enc) {
			t.Fatalf("ShipmentBytes = %d, encoding is %d bytes", want.ShipmentBytes(), len(enc))
		}
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoding encoder output %x: %v", enc, err)
		}
		if len(got.Sets) != len(want.Sets) || (got.Rejects == nil) != (want.Rejects == nil) || !slices.Equal(got.Rejects, want.Rejects) {
			t.Fatalf("round trip: %d slots, κ %v; want %d, %v", len(got.Sets), got.Rejects, len(want.Sets), want.Rejects)
		}
		for i, w := range want.Sets {
			g := got.Sets[i]
			if (w == nil) != (g == nil) {
				t.Fatalf("slot %d: nil-ness changed", i)
			}
			if w != nil && (g.size != w.size || !slices.Equal(g.ids, w.ids) || (w.vec == nil) != (g.vec == nil) ||
				(w.vec != nil && (g.vec.n != w.vec.n || !slices.Equal(g.vec.bits, w.vec.bits)))) {
				t.Fatalf("slot %d: decoded %+v, want %+v", i, g, w)
			}
		}

		// Arbitrary bytes decode to something no larger than themselves,
		// in the one form their encoding has.
		sv, err := Decode(data)
		if err != nil {
			return
		}
		held := len(sv.Sets)
		for _, set := range sv.Sets {
			if set == nil {
				continue
			}
			held += len(set.ids)
			if set.vec != nil {
				held += 8 * len(set.vec.bits)
			}
			for j := 1; j < len(set.ids); j++ {
				if set.ids[j] <= set.ids[j-1] {
					t.Fatalf("decoded list %v does not increase", set.ids)
				}
			}
		}
		if held > len(data) {
			t.Fatalf("%d input bytes decoded into %d slots, IDs and vector bytes", len(data), held)
		}
		if again := sv.AppendBinary(nil); !bytes.Equal(again, data) || sv.ShipmentBytes() != len(data) {
			t.Fatalf("%x decoded, but re-encodes to %x (priced %d)", data, again, sv.ShipmentBytes())
		}
	})
}

// FuzzStageZero holds ComputeSite's boundary sets and κ to a brute-force
// reference over Fragment.Crossing, on small multigraphs: the input picks
// a query shape, two or three fragments, a fragment for each of eight
// vertices, and up to twenty edges over three predicates. It then holds
// the boundary-only union to the full one: partial evaluation under
// either filter finds the same matches at every site.
func FuzzStageZero(f *testing.F) {
	x, y, z, w := query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w")
	l := query.Var("l")
	p0, p1, p2 := query.IRI("p0"), query.IRI("p1"), query.IRI("p2")
	v0, v1, v2 := query.IRI("v0"), query.IRI("v1"), query.IRI("v2")
	shapes := [][][3]query.Node{
		{{x, p0, y}, {y, p1, z}, {z, p2, w}}, // path
		{{x, p0, y}, {y, p1, z}, {z, p2, x}}, // triangle
		{{x, p0, y}, {x, p0, z}, {x, p1, w}}, // fork with a repeated label
		{{x, l, y}, {y, p1, z}},              // label variable
		{{x, p0, y}, {x, l, y}},              // parallel edges
		{{x, l, x}, {x, p0, y}},              // self-loop
		{{v0, p0, y}, {y, p1, z}},            // constant endpoint
		{{x, p0, v1}, {x, p1, y}, {y, p2, v2}},
		{{v0, l, y}, {y, p1, x}}, // label variable at a constant
	}
	for _, seed := range [][]byte{
		{0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0, 4},
		{2, 1, 0, 1, 2, 0, 1, 2, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 3, 1, 1, 4, 2, 5},
		{3, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 2, 2, 2, 0, 0},
		{6, 1, 0, 1, 2, 0, 1, 2, 0, 1, 0, 0, 1, 0, 1, 2, 1, 1, 3},
		{7, 0, 0, 1, 0, 1, 0, 1, 0, 1, 3, 0, 1, 3, 1, 2, 1, 1, 2, 1, 2, 4, 2, 2},
		{8, 1, 2, 0, 1, 2, 0, 1, 0, 1, 0, 0, 1, 0, 1, 2, 0, 2, 3},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 2 + 8
		if len(data) < header+3 {
			return
		}
		k := 2 + int(data[1])%2
		g := rdf.NewGraph()
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for edges := data[header:]; len(edges) >= 3 && len(g.Triples) < 20; edges = edges[3:] {
			s, o := int(edges[0])%8, int(edges[2])%8
			g.AddIRIs(fmt.Sprintf("v%d", s), fmt.Sprintf("p%d", edges[1]%3), fmt.Sprintf("v%d", o))
			tr := g.Triples[len(g.Triples)-1]
			a.Frag[tr.S], a.Frag[tr.O] = int(data[2+s])%k, int(data[2+o])%k
		}
		d, err := fragment.Build(store.FromGraph(g), a)
		if err != nil {
			t.Skip(err)
		}
		b := query.NewBuilder(g.Dict)
		for _, p := range shapes[int(data[0])%len(shapes)] {
			b.Triple(p[0], p[1], p[2])
		}
		q := b.MustBuild()

		full := make([]*SiteVectors, k)     // every internal candidate, the union before boundaries
		boundary := make([]*SiteVectors, k) // ComputeSite's sets, with κ left out so that none drops
		for i, fr := range d.Fragments {
			sv := ComputeSite(fr, q, DefaultBits)
			wantSets, wantRejects := stageZeroReference(fr, q)
			full[i] = &SiteVectors{Sets: make([]*Set, len(q.Vertices))}
			for qv, v := range q.Vertices {
				if !v.IsVar() {
					continue
				}
				ids := slices.DeleteFunc(fr.Store.CandidatesFunc(q, qv, nil, nil), func(u rdf.TermID) bool { return !fr.IsInternal(u) })
				full[i].Sets[qv] = newSet(ids, DefaultBits)
				if got := sv.Sets[qv]; got.Form() != List || !slices.Equal(got.ids, wantSets[qv]) || sv.Rejects[qv] != wantRejects[qv] {
					t.Fatalf("fragment %d, vertex %d: boundary %v with κ %d, want %v with κ %d\nedges %v\nassignment %v",
						i, qv, got.ids, sv.Rejects[qv], wantSets[qv], wantRejects[qv], g.Triples, a.Frag)
				}
			}
			boundary[i] = &SiteVectors{Sets: sv.Sets}
		}
		fullUnion, err := Union(full, q, DefaultBits)
		if err != nil {
			t.Fatal(err)
		}
		boundaryUnion, err := Union(boundary, q, DefaultBits)
		if err != nil {
			t.Fatal(err)
		}
		for i, fr := range d.Fragments {
			want, err := partial.Compute(fr, q, partial.Options{ExtendedFilter: fullUnion.Filter()})
			if err != nil {
				t.Fatal(err)
			}
			got, err := partial.Compute(fr, q, partial.Options{ExtendedFilter: boundaryUnion.Filter()})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("fragment %d: %d partial matches under the boundary union, %d under the full one\nedges %v\nassignment %v",
					i, len(got), len(want), g.Triples, a.Frag)
			}
			for j := range got {
				if !slices.Equal(got[j].Vec, want[j].Vec) || !slices.Equal(got[j].EdgeVars, want[j].EdgeVars) {
					t.Fatalf("fragment %d: match %d is %v under the boundary union, %v under the full one", i, j, got[j].Vec, want[j].Vec)
				}
			}
		}
	})
}

// stageZeroReference is the package comment's definition, edge by edge
// over fr.Crossing: per variable, the internal candidates with a crossing
// edge that matches one of the variable's query edges on its side, and κ,
// the (edge, query edge) pairs that match at an internal vertex that is
// no candidate.
func stageZeroReference(fr *fragment.Fragment, q *query.Graph) (sets [][]rdf.TermID, rejects []int) {
	sets, rejects = make([][]rdf.TermID, len(q.Vertices)), make([]int, len(q.Vertices))
	for qv, v := range q.Vertices {
		if !v.IsVar() {
			continue
		}
		cands := fr.Store.CandidatesFunc(q, qv, nil, nil)
		sets[qv] = []rdf.TermID{}
		for _, tr := range fr.Crossing.Flat() {
			for _, e := range q.Edges {
				if e.From == e.To || !e.HasVarLabel() && e.Label != tr.P {
					continue
				}
				// qv's end of tr and the far end of e.
				var u, farTerm rdf.TermID
				var far query.Vertex
				switch qv {
				case e.From:
					u, farTerm, far = tr.S, tr.O, q.Vertices[e.To]
				case e.To:
					u, farTerm, far = tr.O, tr.S, q.Vertices[e.From]
				default:
					continue
				}
				if !fr.IsInternal(u) || !far.IsVar() && far.Const != farTerm {
					continue
				}
				if _, ok := slices.BinarySearch(cands, u); ok {
					sets[qv] = append(sets[qv], u)
				} else {
					rejects[qv]++
				}
			}
		}
		slices.Sort(sets[qv])
		sets[qv] = slices.Compact(sets[qv])
	}
	return sets, rejects
}
