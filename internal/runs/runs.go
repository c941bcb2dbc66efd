// Package runs keeps an ordered list as a short header of runs: slices
// of at most 2B elements, each immutable once built. A write copies the
// header and the runs it writes and shares every other run with the list
// it was made from, so a new generation of a long list costs O(n/B + B),
// not O(n), while reads stay scans over contiguous slices.
package runs

import (
	"iter"
	"slices"
	"sort"
)

// B is the length a list is cut into runs of. With cuts a run that grows
// past 2B into runs of B to 2B, and drops a run that empties.
const B = 256

// List is an immutable ordered list; the zero value is empty. With
// returns a new list and leaves the receiver as it was.
type List[T any] struct {
	runs []run[T]
	n    int
}

// run is a non-empty slice of a list, capped so that an append copies,
// and the list position of its first element.
type run[T any] struct {
	elems []T
	off   int
}

// Of cuts s into runs of B without copying: the list keeps s's array,
// which the caller must not write again.
func Of[T any](s []T) List[T] {
	l := List[T]{runs: make([]run[T], 0, (len(s)+B-1)/B), n: len(s)}
	for lo := 0; lo < len(s); lo += B {
		hi := min(lo+B, len(s))
		l.runs = append(l.runs, run[T]{s[lo:hi:hi], lo})
	}
	return l
}

// Len reports the number of elements.
func (l List[T]) Len() int { return l.n }

// at returns the index of the run holding position i, for 0 <= i < n.
func (l List[T]) at(i int) int {
	return sort.Search(len(l.runs), func(k int) bool { return l.runs[k].off > i }) - 1
}

// At returns the element at position i, 0 <= i < Len.
func (l List[T]) At(i int) T {
	r := l.runs[l.at(i)]
	return r.elems[i-r.off]
}

// Slices yields the contiguous slices that hold positions [lo, hi), in
// order; each is non-empty. Positions past Len are ignored, and lo must
// not be negative. Callers must not modify the slices.
func (l List[T]) Slices(lo, hi int) iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		if hi = min(hi, l.n); lo >= hi {
			return
		}
		for k := l.at(lo); k < len(l.runs) && l.runs[k].off < hi; k++ {
			r := l.runs[k]
			if !yield(r.elems[max(lo-r.off, 0):min(hi-r.off, len(r.elems))]) {
				return
			}
		}
	}
}

// All yields the list's runs in order.
func (l List[T]) All() iter.Seq[[]T] { return l.Slices(0, l.n) }

// Flat returns the elements in a new slice.
func (l List[T]) Flat() []T {
	out := make([]T, 0, l.n)
	for s := range l.All() {
		out = append(out, s...)
	}
	return out
}

// Search returns the position at which x sits, or would be inserted,
// in a list ordered by cmp, and whether it is there: the first position
// of x's instances, as slices.BinarySearchFunc.
func (l List[T]) Search(x T, cmp func(T, T) int) (int, bool) {
	k := sort.Search(len(l.runs), func(k int) bool {
		e := l.runs[k].elems
		return cmp(e[len(e)-1], x) >= 0
	})
	if k == len(l.runs) {
		return l.n, false
	}
	i, found := slices.BinarySearchFunc(l.runs[k].elems, x, cmp)
	return l.runs[k].off + i, found
}

// With returns l without any instance of the elements of del and with
// one more instance of each element of add, both sorted by cmp, the
// order l is in; deletes apply first, so an element on both sides keeps
// one instance. It copies the header once and each run that loses or
// gains an element, and shares every other run with l. A run that grows
// past 2B is cut into runs of B to 2B; one that empties is dropped.
func (l List[T]) With(add, del []T, cmp func(T, T) int) List[T] {
	if len(add) == 0 && len(del) == 0 {
		return l
	}
	out := List[T]{runs: make([]run[T], 0, len(l.runs)+len(add)/B+1)}
	if len(l.runs) == 0 {
		out.cut(slices.Clone(add))
		return out
	}
	// The runs before the one the first written element lands in keep
	// their places.
	first := add
	if len(add) == 0 || len(del) > 0 && cmp(del[0], add[0]) < 0 {
		first = del
	}
	k := min(sort.Search(len(l.runs), func(k int) bool {
		e := l.runs[k].elems
		return cmp(e[len(e)-1], first[0]) >= 0
	}), len(l.runs)-1)
	out.runs, out.n = append(out.runs, l.runs[:k]...), l.runs[k].off
	for ; k < len(l.runs) && (len(add) > 0 || len(del) > 0); k++ {
		// This run takes the adds up to its last element (the last run
		// takes the rest) and loses its instances of del; instances of
		// its last element may go on into the next run.
		r := l.runs[k]
		last := r.elems[len(r.elems)-1]
		na := len(add)
		if k < len(l.runs)-1 {
			na = sort.Search(len(add), func(i int) bool { return cmp(add[i], last) > 0 })
		}
		nd := sort.Search(len(del), func(i int) bool { return cmp(del[i], last) > 0 })
		a, d := add[:na], del[:nd]
		add = add[na:]
		del = del[sort.Search(nd, func(i int) bool { return cmp(del[i], last) >= 0 }):]
		if len(a) == 0 && !slices.ContainsFunc(d, func(x T) bool {
			_, found := slices.BinarySearchFunc(r.elems, x, cmp)
			return found
		}) {
			out.runs = append(out.runs, run[T]{r.elems, out.n})
			out.n += len(r.elems)
			continue
		}
		merged, rest := make([]T, 0, len(r.elems)+len(a)), r.elems
		for len(a) > 0 || len(d) > 0 {
			if len(d) > 0 && (len(a) == 0 || cmp(d[0], a[0]) <= 0) {
				i, _ := slices.BinarySearchFunc(rest, d[0], cmp)
				j := i
				for j < len(rest) && cmp(rest[j], d[0]) == 0 {
					j++
				}
				merged, rest, d = append(merged, rest[:i]...), rest[j:], d[1:]
			} else {
				i, _ := slices.BinarySearchFunc(rest, a[0], cmp)
				merged, rest, a = append(append(merged, rest[:i]...), a[0]), rest[i:], a[1:]
			}
		}
		out.cut(append(merged, rest...))
	}
	for _, r := range l.runs[k:] {
		out.runs = append(out.runs, run[T]{r.elems, out.n})
		out.n += len(r.elems)
	}
	return out
}

// cut appends s, which nothing else holds, as one run, or when it is
// longer than 2B as runs of B to 2B.
func (l *List[T]) cut(s []T) {
	parts := 1
	if len(s) > 2*B {
		parts = len(s) / B
	}
	for i := range parts {
		lo, hi := i*len(s)/parts, (i+1)*len(s)/parts
		if lo < hi {
			l.runs = append(l.runs, run[T]{s[lo:hi:hi], l.n})
			l.n += hi - lo
		}
	}
}
