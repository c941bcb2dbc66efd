package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gstored/internal/rdf"
	"gstored/internal/runs"
)

// applyEquivalent asserts that st.Apply(inserted, deleted) indexes
// exactly the same graph as a from-scratch New over the post-delta
// multiset: same triples, vertices, sizes, per-key adjacency and
// cardinality table — and that st still reads as New over base.
func applyEquivalent(t *testing.T, dict *rdf.Dictionary, base []rdf.Triple, inserted, deleted []rdf.Triple) *Store {
	t.Helper()
	st := New(dict, base)
	got := st.Apply(inserted, deleted)

	// Reference: rebuild the post-delta multiset the slow way.
	delSet := make(map[rdf.Triple]bool)
	for _, d := range deleted {
		delSet[d] = true
	}
	var after []rdf.Triple
	for _, tr := range base {
		if !delSet[tr] {
			after = append(after, tr)
		}
	}
	after = append(after, inserted...)
	want := New(dict, after)

	if got.Len() != want.Len() {
		t.Errorf("Len = %d, want %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.Vertices(), want.Vertices()) {
		t.Errorf("Vertices = %v, want %v", got.Vertices(), want.Vertices())
	}
	if !reflect.DeepEqual(got.Triples(), want.Triples()) {
		t.Errorf("Triples = %v, want %v", got.Triples(), want.Triples())
	}
	// A fully-deleted adjacency is an empty slice in the applied store but
	// a missing map entry (nil) in the rebuilt one; both mean "no edges".
	sameAdj := func(a, b []HalfEdge) bool {
		return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
	}
	for _, v := range want.Vertices() {
		if !sameAdj(got.Adjacency(v, true, rdf.NoTerm), want.Adjacency(v, true, rdf.NoTerm)) {
			t.Errorf("Out(%d) = %v, want %v", v, got.Adjacency(v, true, rdf.NoTerm), want.Adjacency(v, true, rdf.NoTerm))
		}
		if !sameAdj(got.Adjacency(v, false, rdf.NoTerm), want.Adjacency(v, false, rdf.NoTerm)) {
			t.Errorf("In(%d) = %v, want %v", v, got.Adjacency(v, false, rdf.NoTerm), want.Adjacency(v, false, rdf.NoTerm))
		}
	}
	gp, wp := got.Predicates(), want.Predicates()
	sort.Slice(gp, func(i, j int) bool { return gp[i] < gp[j] })
	sort.Slice(wp, func(i, j int) bool { return wp[i] < wp[j] })
	if !reflect.DeepEqual(gp, wp) {
		t.Errorf("Predicates = %v, want %v", gp, wp)
	}
	for _, p := range wp {
		if !reflect.DeepEqual(got.byPred[p].Flat(), want.byPred[p].Flat()) {
			t.Errorf("byPred[%d] = %v, want %v", p, got.byPred[p].Flat(), want.byPred[p].Flat())
		}
	}
	if !reflect.DeepEqual(got.Stats(), want.Stats()) {
		t.Errorf("Stats = %+v, want %+v", *got.Stats(), *want.Stats())
	}
	// And the snapshot the delta was applied to must be untouched.
	if st.Len() != len(base) {
		t.Errorf("base store mutated: Len = %d, want %d", st.Len(), len(base))
	}
	if was := New(dict, base); !reflect.DeepEqual(st.Stats(), was.Stats()) || !reflect.DeepEqual(st.Vertices(), was.Vertices()) {
		t.Errorf("base store mutated: Stats %+v, Vertices %v; want %+v, %v", *st.Stats(), st.Vertices(), *was.Stats(), was.Vertices())
	}
	return got
}

func applyTestData() (*rdf.Dictionary, []rdf.Triple, func(s, p, o string) rdf.Triple) {
	dict := rdf.NewDictionary()
	mk := func(s, p, o string) rdf.Triple {
		return rdf.Triple{S: dict.Encode(rdf.NewIRI(s)), P: dict.Encode(rdf.NewIRI(p)), O: dict.Encode(rdf.NewIRI(o))}
	}
	base := []rdf.Triple{
		mk("a", "p", "b"),
		mk("b", "p", "c"),
		mk("c", "q", "a"),
		mk("a", "q", "c"),
		mk("d", "p", "d"), // self loop
		mk("b", "p", "c"), // duplicate instance
	}
	return dict, base, mk
}

func TestApplyInsertOnly(t *testing.T) {
	dict, base, mk := applyTestData()
	applyEquivalent(t, dict, base, []rdf.Triple{mk("e", "p", "a"), mk("a", "r", "f")}, nil)
}

func TestApplyDeleteOnly(t *testing.T) {
	dict, base, mk := applyTestData()
	// Deleting b-p-c removes both instances; deleting d-p-d orphans d.
	applyEquivalent(t, dict, base, nil, []rdf.Triple{mk("b", "p", "c"), mk("d", "p", "d")})
}

func TestApplyMixed(t *testing.T) {
	dict, base, mk := applyTestData()
	applyEquivalent(t, dict, base,
		[]rdf.Triple{mk("e", "p", "b"), mk("d", "q", "a")},
		[]rdf.Triple{mk("a", "p", "b"), mk("c", "q", "a")})
}

// TestApplyMovesStats covers the deltas whose cardinality bookkeeping
// differs: a predicate appearing or vanishing, a duplicate instance, and
// an insert and a delete sharing a subject (or an object) under one
// predicate, whose presence moves cancel out.
func TestApplyMovesStats(t *testing.T) {
	dict, base, mk := applyTestData()
	for _, tc := range []struct {
		name              string
		inserted, deleted []rdf.Triple
	}{
		{"creates a predicate", []rdf.Triple{mk("a", "r", "b"), mk("b", "r", "b")}, nil},
		{"empties a predicate", nil, []rdf.Triple{mk("c", "q", "a"), mk("a", "q", "c")}},
		{"inserts an instance of a present triple", []rdf.Triple{mk("a", "p", "b")}, nil},
		{"an insert and a delete share (p, s)", []rdf.Triple{mk("a", "p", "d")}, []rdf.Triple{mk("a", "p", "b")}},
		{"an insert and a delete share (p, o)", []rdf.Triple{mk("b", "q", "a")}, []rdf.Triple{mk("c", "q", "a")}},
	} {
		t.Run(tc.name, func(t *testing.T) { applyEquivalent(t, dict, base, tc.inserted, tc.deleted) })
	}
}

func TestApplyDeleteAbsentIsNoop(t *testing.T) {
	dict, base, mk := applyTestData()
	st := New(dict, base)
	got := st.Apply(nil, []rdf.Triple{mk("x", "y", "z")})
	if got.Len() != st.Len() {
		t.Errorf("deleting an absent triple changed Len: %d != %d", got.Len(), st.Len())
	}
	if !reflect.DeepEqual(got.Vertices(), st.Vertices()) {
		t.Errorf("deleting an absent triple changed the vertex set: %v != %v", got.Vertices(), st.Vertices())
	}
}

// TestApplyDeleteAbsentAlongsideRealDelete is the regression test for
// the documented mis-normalized-delta contract: an absent triple whose
// endpoints are not graph vertices must not corrupt the vertex-set
// arithmetic when mixed with deletions that really happen (this used to
// panic with a negative slice capacity).
func TestApplyDeleteAbsentAlongsideRealDelete(t *testing.T) {
	dict, base, mk := applyTestData()
	ghost1 := mk("ghost1", "p", "ghost2")
	ghost2 := mk("ghost3", "q", "ghost4")
	applyEquivalent(t, dict, base, nil,
		[]rdf.Triple{mk("d", "p", "d"), ghost1, ghost2, ghost1})
}

func TestApplyUntouchedAdjacencyIsShared(t *testing.T) {
	dict, base, mk := applyTestData()
	st := New(dict, base)
	got := st.Apply([]rdf.Triple{mk("a", "r", "f")}, nil)
	// Vertex b's adjacency is untouched by the delta: the new store must
	// share the slice, not copy it — that sharing is what makes Apply
	// cheaper than a rebuild.
	b := dict.Encode(rdf.NewIRI("b"))
	if len(st.Adjacency(b, true, rdf.NoTerm)) == 0 || &st.Adjacency(b, true, rdf.NoTerm)[0] != &got.Adjacency(b, true, rdf.NoTerm)[0] {
		t.Error("untouched adjacency was copied instead of shared")
	}
}

// TestApplyCopiesOnlyTouchedShards pins what makes Apply's cost follow
// the delta on a graph whose shards each hold several vertices: over a
// chain of random deltas every generation equals a from-scratch build,
// vertex by vertex, shares every adjacency shard the delta's endpoints do
// not fall in with the generation before it, and leaves that generation
// as it was.
func TestApplyCopiesOnlyTouchedShards(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dict := rdf.NewDictionary()
	name := func(i int) rdf.TermID { return dict.Encode(rdf.NewIRI(fmt.Sprintf("v%d", i))) }
	pred := func(i int) rdf.TermID { return dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i))) }
	const vertices = 5 * adjShards
	var base []rdf.Triple
	for i := 0; i < 4*vertices; i++ {
		base = append(base, rdf.Triple{S: name(rng.Intn(vertices)), P: pred(rng.Intn(3)), O: name(rng.Intn(vertices))})
	}
	st := New(dict, base)
	for step := 0; step < 40; step++ {
		var inserted, deleted []rdf.Triple
		for i := 0; i < 4; i++ {
			// A quarter of the inserts name a vertex the graph has not seen.
			tr := rdf.Triple{S: name(rng.Intn(vertices + vertices/4)), P: pred(rng.Intn(3)), O: name(rng.Intn(vertices))}
			if !st.HasTriple(tr.S, tr.P, tr.O) && !slices.Contains(inserted, tr) {
				inserted = append(inserted, tr)
			}
		}
		for i := 0; i < 4; i++ {
			deleted = append(deleted, base[rng.Intn(len(base))])
		}
		before := st.Triples()
		next := applyEquivalent(t, dict, base, inserted, deleted)
		touchedOut, touchedIn := map[rdf.TermID]bool{}, map[rdf.TermID]bool{}
		for _, tr := range append(inserted, deleted...) {
			touchedOut[tr.S%adjShards], touchedIn[tr.O%adjShards] = true, true
		}
		// applyEquivalent applied the delta to its own New(dict, base); do the
		// same to the chained store, whose shards the identities below refer to.
		chained := st.Apply(inserted, deleted)
		if !reflect.DeepEqual(chained.Triples(), next.Triples()) {
			t.Fatalf("step %d: the chained store and a fresh one disagree after the same delta", step)
		}
		if !reflect.DeepEqual(chained.Stats(), next.Stats()) {
			t.Fatalf("step %d: the chained store's statistics drifted from a fresh build's", step)
		}
		fresh := New(dict, chained.Triples())
		for _, v := range fresh.Vertices() {
			if !slices.Equal(chained.Adjacency(v, true, rdf.NoTerm), fresh.Adjacency(v, true, rdf.NoTerm)) || !slices.Equal(chained.Adjacency(v, false, rdf.NoTerm), fresh.Adjacency(v, false, rdf.NoTerm)) {
				t.Fatalf("step %d: vertex %d reads Out %v In %v, a fresh build %v and %v", step, v, chained.Adjacency(v, true, rdf.NoTerm), chained.Adjacency(v, false, rdf.NoTerm), fresh.Adjacency(v, true, rdf.NoTerm), fresh.Adjacency(v, false, rdf.NoTerm))
			}
		}
		for i := range rdf.TermID(adjShards) {
			if !touchedOut[i] && chained.out[i] != st.out[i] {
				t.Errorf("step %d: out shard %d copied though no subject of the delta falls in it", step, i)
			}
			if !touchedIn[i] && chained.in[i] != st.in[i] {
				t.Errorf("step %d: in shard %d copied though no object of the delta falls in it", step, i)
			}
		}
		if !reflect.DeepEqual(st.Triples(), before) {
			t.Fatalf("step %d: Apply wrote to the generation it was applied to", step)
		}
		st, base = chained, chained.Triples()
	}
}

// freshRuns counts the runs of l that old does not share: the runs a
// write copied.
func freshRuns[T any](old, l runs.List[T]) int {
	type id struct {
		p *T
		n int
	}
	had := make(map[id]bool)
	for s := range old.All() {
		had[id{&s[0], len(s)}] = true
	}
	n := 0
	for s := range l.All() {
		if !had[id{&s[0], len(s)}] {
			n++
		}
	}
	return n
}

// TestApplyCopiesOnlyTouchedRuns pins what makes Apply's list work
// follow the delta on a graph whose byPred lists and vertex list span
// many runs: after each of a chain of 8-triple deltas, every run of those
// lists is shared with the generation before, but for at most two per
// element the delta writes to the list.
func TestApplyCopiesOnlyTouchedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dict := rdf.NewDictionary()
	name := func(i int) rdf.TermID { return dict.Encode(rdf.NewIRI(fmt.Sprintf("v%d", i))) }
	pred := func(i int) rdf.TermID { return dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i))) }
	const vertices = 8 * runs.B
	var base []rdf.Triple
	for i := 0; i < 6*vertices; i++ {
		base = append(base, rdf.Triple{S: name(rng.Intn(vertices)), P: pred(rng.Intn(3)), O: name(rng.Intn(vertices))})
	}
	st := New(dict, base)
	for step := 0; step < 20; step++ {
		var inserted, deleted []rdf.Triple
		for i := 0; i < 4; i++ {
			// A quarter of the inserts name a vertex the graph has not seen.
			tr := rdf.Triple{S: name(rng.Intn(vertices + vertices/4)), P: pred(rng.Intn(3)), O: name(rng.Intn(vertices))}
			if !st.HasTriple(tr.S, tr.P, tr.O) && !slices.Contains(inserted, tr) {
				inserted = append(inserted, tr)
			}
		}
		all := st.Triples()
		for i := 0; i < 4; i++ {
			deleted = append(deleted, all[rng.Intn(len(all))])
		}
		next := st.Apply(inserted, deleted)
		written := make(map[rdf.TermID]int)
		for _, tr := range append(inserted, deleted...) {
			written[tr.P]++
		}
		for p, l := range next.byPred {
			if n := freshRuns(st.byPred[p], l); n > 2*written[p] {
				t.Errorf("step %d: %d runs of predicate %d's list copied for %d triples written", step, n, p, written[p])
			}
		}
		moved := 0
		was := make(map[rdf.TermID]bool)
		for _, v := range st.Vertices() {
			was[v] = true
		}
		for _, v := range next.Vertices() {
			if !was[v] {
				moved++
			}
			delete(was, v)
		}
		moved += len(was)
		if n := freshRuns(st.vertices, next.vertices); n > 2*moved {
			t.Errorf("step %d: %d runs of the vertex list copied for %d vertices come or gone", step, n, moved)
		}
		st = next
	}
}

// TestShardHoldsNoPointer pins what keeps the index cheap for the garbage
// collector: every field of a shard is pointer-free data or a slice of
// it, so the collector marks a shard's arrays without scanning them.
func TestShardHoldsNoPointer(t *testing.T) {
	var holdsPointer func(reflect.Type) bool
	holdsPointer = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return false
		case reflect.Array:
			return holdsPointer(typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				if holdsPointer(typ.Field(i).Type) {
					return true
				}
			}
			return false
		}
		return true
	}
	typ := reflect.TypeFor[shard]()
	for i := range typ.NumField() {
		f := typ.Field(i)
		elem := f.Type
		if elem.Kind() == reflect.Slice {
			elem = elem.Elem()
		}
		if holdsPointer(elem) {
			t.Errorf("shard.%s is a %v: the collector would scan it for pointers", f.Name, f.Type)
		}
	}
}

// TestApplyRandomized drives Apply through many random deltas against
// the from-scratch reference.
func TestApplyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dict := rdf.NewDictionary()
	name := func(i int) rdf.TermID { return dict.Encode(rdf.NewIRI(fmt.Sprintf("v%d", i))) }
	pred := func(i int) rdf.TermID { return dict.Encode(rdf.NewIRI(fmt.Sprintf("p%d", i))) }
	for round := 0; round < 30; round++ {
		var base []rdf.Triple
		for i := 0; i < 40; i++ {
			base = append(base, rdf.Triple{S: name(rng.Intn(12)), P: pred(rng.Intn(4)), O: name(rng.Intn(12))})
		}
		st := New(dict, base)
		var inserted, deleted []rdf.Triple
		seenIns := make(map[rdf.Triple]bool)
		for i := 0; i < 6; i++ {
			tr := rdf.Triple{S: name(rng.Intn(16)), P: pred(rng.Intn(4)), O: name(rng.Intn(16))}
			// Mirror DB.Update's normalization: inserts are absent + unique.
			if !st.HasTriple(tr.S, tr.P, tr.O) && !seenIns[tr] {
				inserted = append(inserted, tr)
				seenIns[tr] = true
			}
		}
		for i := 0; i < 4 && len(base) > 0; i++ {
			deleted = append(deleted, base[rng.Intn(len(base))])
		}
		applyEquivalent(t, dict, base, inserted, deleted)
	}
}
