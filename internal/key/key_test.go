package key_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gstored/internal/engine"
	"gstored/internal/key"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/rdf"
)

// Identity predicates: the fields each grouping is documented to cover.

func sameFeature(a, b *partial.Match) bool {
	return a.Frag == b.Frag && slices.Equal(a.Crossing, b.Crossing)
}

// grouped reports whether lec.Compute puts a and b in one feature.
func grouped(a, b *partial.Match) bool {
	_, featureOf := lec.Compute([]*partial.Match{a, b})
	return featureOf[0] == featureOf[1]
}

// shareID reports whether a Set gives tuples a and b one id.
func shareID[T key.Word](a, b []T) bool {
	var s key.Set[T]
	ia, _ := s.Add(a)
	ib, _ := s.Add(b)
	return ia == ib
}

// TestKeyBoundaries is the table of adversarial variable-length cases an
// exact identity must still keep apart: every pair differs in identity
// and must differ in feature or set id.
func TestKeyBoundaries(t *testing.T) {
	c1 := partial.CrossEdge{QEdge: 1, S: 2, P: 3, O: 4}
	c0 := partial.CrossEdge{} // all-zero mapping: NoTerm endpoints, edge 0
	features := [][2]*partial.Match{
		{{Frag: 1, Crossing: []partial.CrossEdge{c1}}, {Frag: 2, Crossing: []partial.CrossEdge{c1}}},
		{{Crossing: []partial.CrossEdge{c1}}, {Crossing: []partial.CrossEdge{c1, c0}}},
		{{Crossing: nil}, {Crossing: []partial.CrossEdge{c0}}},
		{{Crossing: []partial.CrossEdge{{QEdge: 1, S: 23}}}, {Crossing: []partial.CrossEdge{{QEdge: 12, S: 3}}}},
	}
	for i, p := range features {
		if grouped(p[0], p[1]) {
			t.Errorf("feature case %d: distinct (fragment, g) pairs share a feature", i)
		}
	}
	// The sign is implied by (fragment, g) — Theorem 1 — and stays out.
	if !grouped(&partial.Match{Frag: 1, Sign: 5}, &partial.Match{Frag: 1, Sign: 9}) {
		t.Error("feature grouping depends on Sign")
	}

	sets := [][2][]int{{{1, 23}, {12, 3}}, {{}, {0}}, {{0}, {0, 0}}, {{1, 2}, {2, 1}}, {{256}, {1}}}
	for i, p := range sets {
		if shareID(p[0], p[1]) {
			t.Errorf("member-set case %d: %v and %v share an id", i, p[0], p[1])
		}
	}

	rows := [][2]engine.Row{{{1, 0}, {1}}, {{0}, {}}, {{1, 23}, {12, 3}}, {{0, 1}, {1, 0}}}
	for i, p := range rows {
		if shareID(p[0], p[1]) {
			t.Errorf("row case %d: %v and %v share a set id", i, p[0], p[1])
		}
	}
}

// Random identities are drawn from tiny domains (lengths 0-2, values
// 0-2), and the second of a pair is the first with at most one field
// redrawn, so equal pairs and one-field near misses both turn up often.

func randTerms(r *rand.Rand) []rdf.TermID {
	ts := make([]rdf.TermID, r.Intn(3))
	for i := range ts {
		ts[i] = rdf.TermID(r.Intn(3))
	}
	return ts
}

func randCrossing(r *rand.Rand) []partial.CrossEdge {
	cs := make([]partial.CrossEdge, r.Intn(3))
	for i := range cs {
		cs[i] = partial.CrossEdge{QEdge: r.Intn(2), S: rdf.TermID(r.Intn(2)), P: rdf.TermID(r.Intn(2)), O: rdf.TermID(r.Intn(2))}
	}
	return cs
}

func randMatchPair(r *rand.Rand) (a, b *partial.Match) {
	a = &partial.Match{
		Frag: r.Intn(2), Vec: randTerms(r), EdgeVars: randTerms(r), Crossing: randCrossing(r),
		Sign: r.Uint64(), // derived, not part of the identity
	}
	c := *a
	b = &c
	switch r.Intn(5) {
	case 0:
		b.Frag = r.Intn(2)
	case 1:
		b.Vec = randTerms(r)
	case 2:
		b.EdgeVars = randTerms(r)
	case 3:
		b.Crossing = randCrossing(r)
	}
	b.Sign = r.Uint64()
	return a, b
}

// TestKeysInjective: for every grouping, two values share a feature or a
// set id iff their identity fields are equal.
func TestKeysInjective(t *testing.T) {
	equalSeen := 0
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ma, mb := randMatchPair(r)
		if sameFeature(ma, mb) {
			equalSeen++
		}
		if grouped(ma, mb) != sameFeature(ma, mb) {
			t.Logf("feature of %+v vs %+v", ma, mb)
			return false
		}
		if shareID(ma.Vec, mb.Vec) != slices.Equal(ma.Vec, mb.Vec) {
			t.Logf("tuple %v vs %v", ma.Vec, mb.Vec)
			return false
		}
		na, nb := r.Perm(r.Intn(4)), r.Perm(r.Intn(4))
		if shareID(na, nb) != slices.Equal(na, nb) {
			t.Logf("members %v vs %v", na, nb)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	if equalSeen < 1000 {
		t.Fatalf("only %d equal pairs drawn; the domains no longer collide", equalSeen)
	}
}
