package fragment

import (
	"math/bits"
	"slices"

	"gstored/internal/rdf"
)

// A page holds the bits of 4096 consecutive term IDs.
const (
	pageShift = 12
	pageWords = 1 << pageShift / 64
)

type page [pageWords]uint64

// vertexSet is V_i: a bitset over term IDs, in pages allocated when their
// first member arrives and reached through a directory indexed by
// ID/4096, with the member count kept beside them. Membership is one bit
// test. A set costs one bit per term ID of each page it touches plus one
// directory slot per 4096 IDs below its largest member, so one hostile ID
// off the wire costs a directory, not a 2³²-bit array.
//
// A set a fragment holds is immutable: add is for sets under
// construction, and with copies the directory and only the pages it
// writes, so a patched fragment shares every other page with the
// generation it was patched from.
type vertexSet struct {
	pages []*page
	n     int
}

func (s *vertexSet) has(v rdf.TermID) bool {
	i := int(v >> pageShift)
	return i < len(s.pages) && s.pages[i] != nil && s.pages[i][v>>6%pageWords]&(1<<(v%64)) != 0
}

// add puts v in s, whose pages the caller owns.
func (s *vertexSet) add(v rdf.TermID) {
	if s.has(v) {
		return
	}
	i := int(v >> pageShift)
	s.grow(i)
	if s.pages[i] == nil {
		s.pages[i] = new(page)
	}
	s.flip(v)
}

// with returns a copy of s in which each v of vs is a member exactly when
// in(v). It shares with s every page whose bits do not change; for vs in
// increasing order it copies each page it writes once.
func (s *vertexSet) with(vs []rdf.TermID, in func(rdf.TermID) bool) vertexSet {
	next := vertexSet{pages: slices.Clone(s.pages), n: s.n}
	owned := -1 // the page copied last: with vs increasing, no earlier page is written again
	for _, v := range vs {
		if next.has(v) == in(v) {
			continue
		}
		if i := int(v >> pageShift); i != owned {
			next.grow(i)
			cp := new(page)
			if next.pages[i] != nil {
				*cp = *next.pages[i]
			}
			next.pages[i], owned = cp, i
		}
		next.flip(v)
	}
	return next
}

// grow extends the directory to cover page i, in one allocation.
func (s *vertexSet) grow(i int) {
	if i >= len(s.pages) {
		pages := make([]*page, i+1, max(i+1, 2*cap(s.pages)))
		copy(pages, s.pages)
		s.pages = pages
	}
}

// flip toggles v, whose page exists.
func (s *vertexSet) flip(v rdf.TermID) {
	w, bit := &s.pages[v>>pageShift][v>>6%pageWords], uint64(1)<<(v%64)
	if *w&bit == 0 {
		s.n++
	} else {
		s.n--
	}
	*w ^= bit
}

// members returns the set in ascending ID order.
func (s *vertexSet) members() []rdf.TermID {
	out := make([]rdf.TermID, 0, s.n)
	for i, pg := range s.pages {
		if pg == nil {
			continue
		}
		for j, w := range pg {
			for ; w != 0; w &= w - 1 {
				out = append(out, rdf.TermID(i<<pageShift|j<<6|bits.TrailingZeros64(w)))
			}
		}
	}
	return out
}
