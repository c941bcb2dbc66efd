package key

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// checkSet adds tuples to s twice over, against a map of their printed
// forms: a tuple is new exactly when the map has not seen it, keeps the
// id of its first Add, and At returns it.
func checkSet(t *testing.T, s *Set[int32], tuples [][]int32) {
	t.Helper()
	ref := map[string]int{}
	for round := 0; round < 2; round++ {
		for _, tup := range tuples {
			k := fmt.Sprint(tup)
			want, seen := ref[k]
			if !seen {
				want = len(ref)
				ref[k] = want
			}
			id, added := s.Add(tup)
			if id != want || added == seen {
				t.Fatalf("Add(%v) = %d, %v; want %d, %v", tup, id, added, want, !seen)
			}
			if !slices.Equal(s.At(id), tup) {
				t.Fatalf("At(%d) = %v, want %v", id, s.At(id), tup)
			}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len %d, %d distinct tuples", s.Len(), len(ref))
	}
}

// randTuples draws n tuples of length 0-3 over values 0-3, so equal
// tuples, prefixes and permutations all turn up.
func randTuples(r *rand.Rand, n int) [][]int32 {
	out := make([][]int32, n)
	for i := range out {
		out[i] = make([]int32, r.Intn(4))
		for j := range out[i] {
			out[i][j] = int32(r.Intn(4))
		}
	}
	return out
}

// TestSetExact: ids are dense, first-seen and exact with the real hash,
// across growth and Reset.
func TestSetExact(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var s Set[int32]
	checkSet(t, &s, randTuples(r, 2000))
	// An emptied set hands out ids from 0 again.
	for _, n := range []int{2000, 10} {
		s.Reset()
		checkSet(t, &s, randTuples(r, n))
	}
	var reserved Set[int32]
	reserved.Reserve(100, 300)
	checkSet(t, &reserved, randTuples(r, 300))
}

// TestSetCollisions: tuples of equal hash keep distinct ids, and each
// finds its own. The pairs are real 32-bit hash collisions, found by a
// birthday search, so each probe has to compare elements.
func TestSetCollisions(t *testing.T) {
	first := map[uint32][]int32{}
	var tuples [][]int32
	for i := int32(0); len(tuples) < 6 && i < 1<<20; i++ {
		tup := []int32{i, i % 7}
		if prev, ok := first[hash(tup)]; ok {
			tuples = append(tuples, prev, tup)
		}
		first[hash(tup)] = tup
	}
	if len(tuples) < 6 {
		t.Fatalf("found %d colliding pairs, want 3", len(tuples)/2)
	}
	var s Set[int32]
	checkSet(t, &s, tuples)
}
