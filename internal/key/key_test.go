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
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// keyQuery is ?x ?p ?y . ?y <q> ?z: one edge labelled by a variable, so
// that a crossing edge's label comes from the match.
var keyQuery = query.NewBuilder(rdf.NewDictionary()).
	Triple(query.Var("x"), query.Var("p"), query.Var("y")).
	Triple(query.Var("y"), query.IRI("q"), query.Var("z")).
	MustBuild()

// Identity predicates: the fields each grouping is documented to cover.

func sameFeature(a, b *partial.Match) bool {
	return a.Frag == b.Frag && slices.Equal(partial.AppendCrossing(nil, keyQuery, a.Vec, a.EdgeVars, a.Sign), partial.AppendCrossing(nil, keyQuery, b.Vec, b.EdgeVars, b.Sign))
}

// grouped reports whether lec.Group puts a and b in one feature.
func grouped(a, b *partial.Match) bool {
	fs := lec.Group(keyQuery, partial.SetOf(keyQuery, []*partial.Match{a, b}))
	return fs.FeatureOf[0] == fs.FeatureOf[1]
}

// match is a match of keyQuery binding x, y, z to vec and ?p to p, with
// the vertices in internal marked in its sign.
func match(frag int, vec [3]rdf.TermID, p rdf.TermID, internal ...string) *partial.Match {
	m := &partial.Match{Frag: frag, Vec: make([]rdf.TermID, len(keyQuery.Vertices)), EdgeVars: make([]rdf.TermID, len(keyQuery.Vars))}
	for i, name := range []string{"x", "y", "z"} {
		v := slices.IndexFunc(keyQuery.Vertices, func(v query.Vertex) bool { return v.IsVar() && keyQuery.Vars[v.Var] == name })
		m.Vec[v] = vec[i]
		if slices.Contains(internal, name) {
			m.Sign |= 1 << uint(v)
		}
	}
	m.EdgeVars[slices.Index(keyQuery.Vars, "p")] = p
	return m
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
	features := [][2]*partial.Match{
		// Same g, another fragment.
		{match(1, [3]rdf.TermID{2, 4, 0}, 3, "x"), match(2, [3]rdf.TermID{2, 4, 0}, 3, "x")},
		// g a prefix of the other's.
		{match(0, [3]rdf.TermID{2, 4, 0}, 3, "x"), match(0, [3]rdf.TermID{2, 4, 5}, 3, "x", "z")},
		// No mapping against the first mapping interned, id 0.
		{match(0, [3]rdf.TermID{2, 0, 0}, 3, "x"), match(0, [3]rdf.TermID{2, 4, 0}, 3, "x")},
		// Ends whose digits run together alike.
		{match(0, [3]rdf.TermID{1, 23, 0}, 3, "x"), match(0, [3]rdf.TermID{12, 3, 0}, 3, "x")},
		// Another label.
		{match(0, [3]rdf.TermID{2, 4, 0}, 3, "x"), match(0, [3]rdf.TermID{2, 4, 0}, 5, "x")},
	}
	for i, p := range features {
		if grouped(p[0], p[1]) {
			t.Errorf("feature case %d: distinct (fragment, g) pairs share a feature", i)
		}
	}
	// The sign is implied by (fragment, g) — Theorem 1 — and stays out:
	// here either end of the one crossing edge is the internal one.
	if !grouped(match(1, [3]rdf.TermID{2, 4, 0}, 3, "x"), match(1, [3]rdf.TermID{2, 4, 0}, 3, "y")) {
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

// Random identities are drawn from tiny domains (values 0-2, tuples of
// lengths 0-2), and the second of a pair is the first with at most one
// field redrawn, so equal pairs and one-field near misses both turn up
// often.

func randTerms(r *rand.Rand, n int) []rdf.TermID {
	ts := make([]rdf.TermID, n)
	for i := range ts {
		ts[i] = rdf.TermID(r.Intn(3))
	}
	return ts
}

// randSign marks a random subset of m's bound vertices internal.
func randSign(r *rand.Rand, m *partial.Match) uint64 {
	var sign uint64
	for i, u := range m.Vec {
		if u != rdf.NoTerm && r.Intn(2) == 0 {
			sign |= 1 << uint(i)
		}
	}
	return sign
}

func randMatchPair(r *rand.Rand) (a, b *partial.Match) {
	vec := func() []rdf.TermID { return randTerms(r, len(keyQuery.Vertices)) }
	a = &partial.Match{Frag: r.Intn(2), Vec: vec(), EdgeVars: randTerms(r, len(keyQuery.Vars))}
	a.Sign = randSign(r, a)
	c := *a
	b = &c
	switch r.Intn(5) {
	case 0:
		b.Frag = r.Intn(2)
	case 1:
		b.Vec = vec()
		b.Sign = randSign(r, b)
	case 2:
		b.EdgeVars = randTerms(r, len(keyQuery.Vars))
	case 3:
		b.Sign = randSign(r, b)
	}
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
		ta, tb := randTerms(r, r.Intn(3)), randTerms(r, r.Intn(3))
		if r.Intn(2) == 0 {
			tb = ta
		}
		if shareID(ta, tb) != slices.Equal(ta, tb) {
			t.Logf("tuple %v vs %v", ta, tb)
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
