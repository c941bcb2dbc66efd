// Package key holds the identities the query path deduplicates and
// indexes on. Set is an exact hashed set of integer tuples — LEC
// features as (fragment, mapping ids), join member sets and DISTINCT's
// projected rows — that hands out dense ids and allocates no key per
// tuple.
package key

import "slices"

// Word is an element type a Set can hold: term IDs, dense ids and indices.
type Word interface{ ~int | ~int32 | ~uint32 }

// List is integer tuples stored back to back in one arena, a CSR: a
// tuple's id is its position.
type List[T Word] struct {
	arena []T
	ends  []int32 // ends[id] closes tuple id in arena
}

// Len reports the number of tuples.
func (l *List[T]) Len() int { return len(l.ends) }

// At returns tuple id; the slice aliases the arena and is capped.
func (l *List[T]) At(id int) []T {
	lo := int32(0)
	if id > 0 {
		lo = l.ends[id-1]
	}
	return l.arena[lo:l.ends[id]:l.ends[id]]
}

// Append adds a copy of t as the last tuple.
func (l *List[T]) Append(t []T) {
	l.arena = append(l.arena, t...)
	l.ends = append(l.ends, int32(len(l.arena)))
}

// Set is an exact set of integer tuples. Each new tuple is copied into
// one arena and gets a dense id, in order of first Add; a hash only picks
// the slot, and tuples of equal hash are told apart by their elements.
type Set[T Word] struct {
	list List[T]
	// slots is a linear-probing table, at most half full: 0 is empty,
	// else the tuple's 32-bit hash above its id+1.
	slots []uint64
}

// Len reports the number of distinct tuples.
func (s *Set[T]) Len() int { return s.list.Len() }

// At returns tuple id; the slice aliases the arena and is capped.
func (s *Set[T]) At(id int) []T { return s.list.At(id) }

// List returns the set's tuples, each at its id. It shares the set's
// arena, so only one of the two may be added to afterwards.
func (s *Set[T]) List() List[T] { return s.list }

// Reserve makes room for tuples more tuples of words elements in all.
func (s *Set[T]) Reserve(tuples, words int) {
	s.list.arena, s.list.ends = slices.Grow(s.list.arena, words), slices.Grow(s.list.ends, tuples)
	s.grow(2 * (s.Len() + tuples))
}

// Add returns the id of tuple t, adding a copy of it if it is new.
func (s *Set[T]) Add(t []T) (id int, added bool) {
	s.grow(2 * (s.Len() + 1))
	h, mask := hash(t), uint32(len(s.slots)-1)
	for i := h & mask; ; i = (i + 1) & mask {
		sl := s.slots[i]
		if sl == 0 {
			s.list.Append(t)
			s.slots[i] = uint64(h)<<32 | uint64(s.Len())
			return s.Len() - 1, true
		}
		if id = int(uint32(sl)) - 1; uint32(sl>>32) == h && slices.Equal(s.At(id), t) {
			return id, false
		}
	}
}

// Reset empties the set, keeping its memory.
func (s *Set[T]) Reset() {
	clear(s.slots)
	s.list = List[T]{s.list.arena[:0], s.list.ends[:0]}
}

// grow doubles the table until it has at least n slots.
func (s *Set[T]) grow(n int) {
	if n <= len(s.slots) {
		return
	}
	size := max(16, len(s.slots))
	for size < n {
		size *= 2
	}
	old, mask := s.slots, uint32(size-1)
	s.slots = make([]uint64, size)
	for _, sl := range old {
		if sl == 0 {
			continue
		}
		i := uint32(sl>>32) & mask
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = sl
	}
}

// hash folds each element in with a multiply and a shift, then finishes
// with the murmur3 mix, so that small dense ids spread over the table.
func hash[T Word](t []T) uint32 {
	h := uint64(len(t))
	for _, w := range t {
		h = (h ^ uint64(w)) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	return uint32(h ^ h>>33)
}
