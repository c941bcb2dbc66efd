package fragment

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"gstored/internal/paperexample"
	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// TestPayloadRoundTrip: a fragment is a function of what its payload
// carries, so shipping one and rebuilding it yields the same fragment:
// field for field beside the store, the same scan side, and the same
// answer to every read of the store at every vertex and edge of the
// graph, though the rebuilt store owns its index and the shipped one
// reads the global store's.
func TestPayloadRoundTrip(t *testing.T) {
	ex := paperexample.New()
	paper, err := Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	lubm, err := buildWith(store.FromGraph(workload.LUBM(workload.LUBMConfig{Universities: 1, Seed: 7})), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]*Distributed{"paper example": paper, "LUBM(1)": lubm} {
		for _, f := range d.Fragments {
			got, err := FromPayload(f.Payload(), d.Dict)
			if err != nil {
				t.Fatalf("%s fragment %d: %v", name, f.ID, err)
			}
			gf, ff := *got, *f
			gf.Store, ff.Store = nil, nil
			if !reflect.DeepEqual(gf, ff) || !reflect.DeepEqual(snapshotOf(got), snapshotOf(f)) || !reflect.DeepEqual(got.Store.Stats(), f.Store.Stats()) {
				t.Errorf("%s fragment %d does not survive Payload → FromPayload", name, f.ID)
			}
			if !got.Store.OwnsIndex() || f.Store.OwnsIndex() {
				t.Errorf("%s fragment %d: the shipped store owns its index (%v), the rebuilt one (%v)", name, f.ID, f.Store.OwnsIndex(), got.Store.OwnsIndex())
			}
			sameReads(t, f, got, d.Global.Vertices(), predicates(d.Global), d.Global.Triples())
		}
	}
}

// TestFromPayloadRejectsMalformedInput: the payload comes off a socket,
// so every way it can contradict Definition 1 is an error, not a panic
// and not a fragment that silently misclassifies edges.
func TestFromPayloadRejectsMalformedInput(t *testing.T) {
	tr := func(s, p, o rdf.TermID) rdf.Triple { return rdf.Triple{S: s, P: p, O: o} }
	for _, tc := range []struct {
		name string
		p    Payload
	}{
		{"edge with no internal endpoint", Payload{Triples: []rdf.Triple{tr(1, 9, 2), tr(3, 9, 4)}, Internal: []rdf.TermID{1, 2}}},
		{"edges out of (S,P,O) order", Payload{Triples: []rdf.Triple{tr(2, 9, 1), tr(1, 9, 2)}, Internal: []rdf.TermID{1, 2}}},
		{"edges but no internal vertices", Payload{Triples: []rdf.Triple{tr(1, 9, 2)}}},
		{"internal vertex with no edge", Payload{Triples: []rdf.Triple{tr(1, 9, 2)}, Internal: []rdf.TermID{1, 7}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if f, err := FromPayload(&tc.p, rdf.NewDictionary()); err == nil {
				t.Errorf("accepted: %+v", f)
			}
		})
	}
	if _, err := FromPayload(&Payload{}, rdf.NewDictionary()); err != nil {
		t.Errorf("the empty fragment is legal (more sites than vertices): %v", err)
	}
}

// TestFarVertexIDIsCheap: FromPayload and a worker's Apply take vertex
// IDs off the wire, so a payload or a delta naming vertex 2³²−1 must cost
// V_i a page directory, not a bit for every ID below it.
func TestFarVertexIDIsCheap(t *testing.T) {
	const far = rdf.TermID(math.MaxUint32)
	g, d, _ := deltaFixture(t)
	held, err := FromPayload(d.Fragments[0].Payload(), d.Dict)
	if err != nil {
		t.Fatal(err)
	}
	a1 := g.Dict.Encode(rdf.NewIRI("a1"))
	p := Payload{Triples: []rdf.Triple{{S: 1, P: 9, O: far}}, Internal: []rdf.TermID{1, far}}
	delta := Delta{Inserted: []rdf.Triple{{S: a1, P: g.Dict.Encode(rdf.NewIRI("p")), O: far}}, Owned: []rdf.TermID{a1, far}}
	for name, build := range map[string]func() (*Fragment, error){
		"payload": func() (*Fragment, error) { return FromPayload(&p, rdf.NewDictionary()) },
		"delta":   func() (*Fragment, error) { return held.Apply(&delta) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f, err := build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !f.IsInternal(far) {
			t.Errorf("%s: vertex %d is not internal", name, far)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
			t.Errorf("%s naming vertex %d allocated %d bytes, want < 16 MiB", name, far, alloc)
		}
	}
}
