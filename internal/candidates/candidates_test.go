package candidates

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

func TestBitVectorBasics(t *testing.T) {
	bv := NewBitVector(128)
	ids := []rdf.TermID{1, 2, 77, 1000, 65535}
	for _, id := range ids {
		bv.Set(id)
	}
	for _, id := range ids {
		if !bv.Test(id) {
			t.Errorf("bit for %d lost", id)
		}
	}
	if set := (&Set{vec: bv}); set.Count() == 0 || set.Count() > len(ids) || set.Form() != Bits {
		t.Errorf("%v set counts %d bits for %d IDs", set.Form(), set.Count(), len(ids))
	}
}

func TestBitVectorRounding(t *testing.T) {
	bv := NewBitVector(1)
	if bv.n != 64 {
		t.Errorf("1-bit vector rounded to %d, want 64", bv.n)
	}
	bv0 := NewBitVector(0)
	if bv0.n != DefaultBits {
		t.Errorf("0 defaults to %d, got %d", DefaultBits, bv0.n)
	}
}

func TestBitVectorOrMismatch(t *testing.T) {
	a, b := NewBitVector(64), NewBitVector(128)
	if err := a.Or(b); err == nil {
		t.Error("expected length-mismatch error")
	}
	if err := a.Or(nil); err != nil {
		t.Errorf("Or(nil) = %v", err)
	}
}

func TestBitVectorNoFalseNegativesProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bv := NewBitVector(256)
		var set []rdf.TermID
		for i := 0; i < 50; i++ {
			id := rdf.TermID(r.Uint32())
			bv.Set(id)
			set = append(set, id)
		}
		for _, id := range set {
			if !bv.Test(id) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAlgorithm4OnPaperExample runs the full Section VI flow on the
// running example. The optimization's showcase: PM2_3 = [014,013,NULL,
// 017,NULL] is a false positive (014 has no incoming influencedBy, so it
// is an internal candidate for ?p2 at no site) and the filter suppresses
// it during partial evaluation — before LEC pruning would catch it.
func TestAlgorithm4OnPaperExample(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*SiteVectors
	ship := 0
	for _, f := range d.Fragments {
		sv := ComputeSite(f, ex.Query, 1024)
		sites = append(sites, sv)
		ship += sv.ShipmentBytes()
	}
	if ship == 0 {
		t.Fatal("no shipment recorded")
	}
	union, err := Union(sites, ex.Query, 1024)
	if err != nil {
		t.Fatal(err)
	}
	filter := union.Filter()
	if filter(0, ex.V[14]) {
		t.Error("014 should be rejected as a candidate for ?p2 (it heads no influencedBy edge)")
	}
	total := 0
	for _, f := range d.Fragments {
		ms, err := partial.Compute(f, ex.Query, partial.Options{ExtendedFilter: filter})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			for _, u := range m.Vec {
				if u == ex.V[14] {
					t.Error("PM2_3 survived the candidate filter")
				}
			}
		}
		total += len(ms)
	}
	if total != 7 {
		t.Errorf("filtered partial matches = %d, want 7 (Fig. 3 minus PM2_3)", total)
	}
	// Constant vertices are never filtered.
	if !filter(4, 999999) {
		t.Error("constant vertex position should admit anything")
	}
}

// TestFilterPrunesNonCandidates: a vertex that is no internal candidate
// anywhere must be rejected (the union of a 20-vertex graph's sets is a
// list, so no hash collision can admit it).
func TestFilterPrunesNonCandidates(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*SiteVectors
	for _, f := range d.Fragments {
		sites = append(sites, ComputeSite(f, ex.Query, DefaultBits))
	}
	union, err := Union(sites, ex.Query, DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	filter := union.Filter()
	// Vertex 019 (s3:Pla1) has only a label edge — it can never match ?p2
	// (query vertex 0, which needs outgoing mainInterest and incoming
	// influencedBy); nor can vertex 002 (a date literal).
	if filter(0, ex.V[19]) {
		t.Error("s3:Pla1 should not be a candidate for ?p2")
	}
	if filter(0, ex.V[2]) {
		t.Error("literal 002 should not be a candidate for ?p2")
	}
	// 006 is a genuine candidate for ?p2.
	if !filter(0, ex.V[6]) {
		t.Error("006 must remain a candidate for ?p2")
	}
}

// TestFilteredPartialEvaluationSafety: computing partial matches with the
// Algorithm 4 filter loses no partial match whose extended bindings are
// genuine internal candidates elsewhere — i.e. no final result can be
// lost. We check the stronger property that filtered PMs ⊆ unfiltered PMs.
func TestFilteredPartialEvaluationSafety(t *testing.T) {
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	var sites []*SiteVectors
	for _, f := range d.Fragments {
		sites = append(sites, ComputeSite(f, ex.Query, DefaultBits))
	}
	union, _ := Union(sites, ex.Query, DefaultBits)
	for _, f := range d.Fragments {
		unfiltered, err := partial.Compute(f, ex.Query, partial.Options{})
		if err != nil {
			t.Fatal(err)
		}
		filtered, err := partial.Compute(f, ex.Query, partial.Options{ExtendedFilter: union.Filter()})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range filtered {
			if !slices.ContainsFunc(unfiltered, func(u *partial.Match) bool {
				return slices.Equal(u.Vec, m.Vec) && slices.Equal(u.EdgeVars, m.EdgeVars)
			}) {
				t.Errorf("F%d: filtered run invented PM %v", f.ID+1, m.Vec)
			}
		}
		if len(filtered) > len(unfiltered) {
			t.Errorf("F%d: filter grew the PM set", f.ID+1)
		}
	}
}

func TestComputeSiteSkipsConstants(t *testing.T) {
	ex := paperexample.New()
	d, _ := fragment.Build(ex.Store, ex.Assignment)
	sv := ComputeSite(d.Fragments[0], ex.Query, 512)
	if sv.Sets[4] != nil {
		t.Error("constant query vertex received a candidate set")
	}
	for qv := 0; qv < 4; qv++ {
		if sv.Sets[qv] == nil {
			t.Errorf("variable vertex %d missing its set", qv)
		}
	}
}

// encode is AppendBinary with the pricing invariant checked:
// ShipmentBytes is the length of what the encoder produces.
func encode(t *testing.T, sv *SiteVectors) []byte {
	t.Helper()
	data := sv.AppendBinary(nil)
	if sv.ShipmentBytes() != len(data) {
		t.Errorf("ShipmentBytes = %d, encoding is %d bytes", sv.ShipmentBytes(), len(data))
	}
	return data
}

// TestUnionShipmentAccounting: on the running example every site's sets
// and their union are priced at their encoded length — a few bytes of
// list each, where the flat vectors cost 4 × 512.
func TestUnionShipmentAccounting(t *testing.T) {
	ex := paperexample.New()
	d, _ := fragment.Build(ex.Store, ex.Assignment)
	var sites []*SiteVectors
	for _, f := range d.Fragments {
		sv := ComputeSite(f, ex.Query, 1<<12)
		if n := len(encode(t, sv)); n >= 64 {
			t.Errorf("F%d ships %d bytes for a handful of candidates", f.ID+1, n)
		}
		sites = append(sites, sv)
	}
	union, err := Union(sites, ex.Query, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	encode(t, union)
	for qv, set := range union.Sets {
		if set != nil && set.Form() != List {
			t.Errorf("union of query vertex %d left the list form", qv)
		}
	}
}

// TestShipmentBytesIsEncodedLength covers each kind of slot alone and
// together: a list, a vector, an empty set (one byte) and no set.
func TestShipmentBytesIsEncodedLength(t *testing.T) {
	list := newSet([]rdf.TermID{3, 4, 200, 70000}, DefaultBits)
	dense := make([]rdf.TermID, 400)
	for i := range dense {
		dense[i] = rdf.TermID(1000 + 300*i)
	}
	vec := newSet(dense, 1<<10)
	empty := newSet(nil, DefaultBits)
	if list.Form() != List || vec.Form() != Bits || empty.Form() != List {
		t.Fatalf("forms = %v, %v, %v; want list, bits, list", list.Form(), vec.Form(), empty.Form())
	}
	if list.size != 1+1+1+2+3 || empty.size != 1 || vec.size != 1+1+128 {
		t.Errorf("slot sizes = %d, %d, %d", list.size, empty.size, vec.size)
	}
	for _, sets := range [][]*Set{{list}, {vec}, {empty}, {nil}, {nil, list, vec, nil, empty}, {}} {
		sv := &SiteVectors{Sets: sets}
		data := encode(t, sv)
		got, err := Decode(data)
		if err != nil {
			t.Fatalf("%d slots: %v", len(sets), err)
		}
		if again := encode(t, got); !bytes.Equal(again, data) {
			t.Errorf("%d slots: decoded sets re-encode to %x, want %x", len(sets), again, data)
		}
	}
}

// siteSets deals n random IDs to k disjoint sites.
func siteSets(r *rand.Rand, k, n, bits int) (sites []*SiteVectors, all []rdf.TermID) {
	per := make([][]rdf.TermID, k)
	for _, i := range r.Perm(8 * n)[:n] {
		id, j := rdf.TermID(i+1), r.Intn(k)
		per[j] = append(per[j], id)
		all = append(all, id)
	}
	for _, ids := range per {
		slices.Sort(ids)
		sites = append(sites, &SiteVectors{Sets: []*Set{newSet(ids, bits)}})
	}
	slices.Sort(all)
	return sites, all
}

// TestUnionForms: the same site lists union to a list under a long
// vector length and to a vector under a short one. The list admits exactly
// the sites' candidates; the vector admits those and false positives, never
// fewer.
func TestUnionForms(t *testing.T) {
	q := query.NewBuilder(rdf.NewDictionary()).
		Triple(query.Var("x"), query.Var("p"), query.Var("x")).MustBuild()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		sites, all := siteSets(r, 4, 160, DefaultBits)
		exact, err := Union(sites, q, DefaultBits)
		if err != nil {
			t.Fatal(err)
		}
		hashed, err := Union(sites, q, 1<<10)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Sets[0].Form() != List || hashed.Sets[0].Form() != Bits {
			t.Fatalf("forms = %v, %v; want list, bits", exact.Sets[0].Form(), hashed.Sets[0].Form())
		}
		if exact.Sets[0].Count() != len(all) {
			t.Fatalf("list union holds %d candidates, sites sent %d", exact.Sets[0].Count(), len(all))
		}
		inList, inBits := exact.Filter(), hashed.Filter()
		falsePositives := 0
		for u := rdf.TermID(1); u <= 8*160; u++ {
			_, member := slices.BinarySearch(all, u)
			if inList(0, u) != member {
				t.Fatalf("list union admits %d: %v, member: %v", u, inList(0, u), member)
			}
			if member && !inBits(0, u) {
				t.Fatalf("bits union lost candidate %d", u)
			}
			if !member && inBits(0, u) {
				falsePositives++
			}
		}
		if falsePositives == 0 {
			t.Error("a 1 Ki-bit vector over 160 IDs admitted no false positive: is it hashed at all?")
		}
		// A site that had to send a vector makes the union one.
		sites[0] = &SiteVectors{Sets: []*Set{hashedSet(all[:3], DefaultBits)}}
		mixed, err := Union(sites, q, DefaultBits)
		if err != nil {
			t.Fatal(err)
		}
		if mixed.Sets[0].Form() != Bits {
			t.Fatal("union over a vector stayed a list")
		}
		for _, u := range all[:3] {
			if !mixed.Filter()(0, u) {
				t.Fatalf("mixed union lost candidate %d", u)
			}
		}
	}
}

func TestUnionLengthMismatch(t *testing.T) {
	ex := paperexample.New()
	slots := len(ex.Query.Vertices)
	a, b := &SiteVectors{Sets: make([]*Set, slots)}, &SiteVectors{Sets: make([]*Set, slots)}
	a.Sets[0], b.Sets[0] = hashedSet([]rdf.TermID{1}, 64), hashedSet([]rdf.TermID{2}, 128)
	for qv := 1; qv < 4; qv++ {
		a.Sets[qv], b.Sets[qv] = newSet(nil, 64), newSet(nil, 64)
	}
	if _, err := Union([]*SiteVectors{a, b}, ex.Query, 64); err == nil {
		t.Error("expected bit-length mismatch error")
	}
	if _, err := Union([]*SiteVectors{a, {Sets: a.Sets[:2]}}, ex.Query, 64); err == nil {
		t.Error("expected an error for a site with too few sets")
	}
}

func TestSiteVectorsRoundTripWithNilSlots(t *testing.T) {
	// Constant query vertices leave nil slots, which the encoding must
	// preserve.
	sv := &SiteVectors{Sets: make([]*Set, 4)}
	sv.Sets[0] = hashedSet([]rdf.TermID{5}, 128)
	sv.Sets[2] = newSet([]rdf.TermID{77}, 128)
	data := encode(t, sv)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sets) != 4 {
		t.Fatalf("slot count = %d, want 4", len(got.Sets))
	}
	if got.Sets[1] != nil || got.Sets[3] != nil {
		t.Error("nil slots did not survive the round trip")
	}
	if got.Sets[0] == nil || got.Sets[0].Form() != Bits || !got.Sets[0].Has(5) {
		t.Error("slot 0 lost its bit")
	}
	if got.Sets[2] == nil || got.Sets[2].Form() != List || !got.Sets[2].Has(77) || got.Sets[2].Has(5) {
		t.Error("slot 2 lost its list")
	}
	if _, err := Decode(data[:len(data)-3]); err == nil {
		t.Error("truncated payload decoded")
	}
	if _, err := Decode(append(data, 9)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestDecodeRejectsHostilePayloads: each payload is wrong in one way the
// decoder must notice before it allocates or indexes for it. The first
// byte is the head: 2 is one slot, 3 one slot of a report, which carries κ.
func TestDecodeRejectsHostilePayloads(t *testing.T) {
	for name, data := range map[string][]byte{
		"empty":                  {},
		"slot count beyond data": {0xff, 0xff, 0xff, 0xff, 0x0f, 0},
		"list count beyond data": {2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1},
		"word count beyond data": {2, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0, 0, 0, 0, 0, 0, 0},
		"zero words":             {2, 1, 0},
		"repeated ID":            {2, 4, 7, 0},
		"ID past 32 bits":        {2, 4, 0xff, 0xff, 0xff, 0xff, 0x0f, 1},
		"varint past 64 bits":    {2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f},
		"overlong varint":        {2, 3, 0x85, 0x00},
		"overlong header":        {2, 0x82, 0x00},
		"truncated list":         {2, 4, 7},
		"trailing byte":          {2, 2, 0},
		"report without κ":       {3, 2},
		"κ past 32 bits":         {3, 2, 0x80, 0x80, 0x80, 0x80, 0x10},
		"overlong κ":             {3, 2, 0x81, 0x00},
	} {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: %x decoded", name, data)
		}
	}
}
