package candidates

// Native fuzz target for the stage-0 decoder, which reads bytes off a
// socket: arbitrary input must decode or fail without a panic, what
// decodes must hold no more than the input could carry and re-encode to
// the same bytes, and whatever the encoder produces must decode to the
// sets it was given.

import (
	"bytes"
	"slices"
	"testing"

	"gstored/internal/rdf"
)

// setsFrom derives a SiteVectors from fuzz input: each byte pair is a gap
// to the next ID, a zero gap closes the slot (every third closed slot is
// left nil), and the first byte picks the vector length, so short vectors
// push longer slots into the bits form.
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
		if len(got.Sets) != len(want.Sets) {
			t.Fatalf("round trip: %d slots, want %d", len(got.Sets), len(want.Sets))
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
