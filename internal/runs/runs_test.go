package runs

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
)

// check verifies l's structure against the sorted oracle want: every run
// is non-empty, at most 2B long and capped; the offsets are the running
// sums of the run lengths; the elements, read run after run, are want.
func check[T cmp.Ordered](l List[T], want []T) error {
	off := 0
	var all []T
	for k, r := range l.runs {
		switch {
		case len(r.elems) == 0:
			return fmt.Errorf("run %d is empty", k)
		case len(r.elems) > 2*B:
			return fmt.Errorf("run %d holds %d elements, over 2B = %d", k, len(r.elems), 2*B)
		case cap(r.elems) != len(r.elems):
			return fmt.Errorf("run %d has room to append: len %d, cap %d", k, len(r.elems), cap(r.elems))
		case r.off != off:
			return fmt.Errorf("run %d starts at %d, want %d", k, r.off, off)
		}
		off += len(r.elems)
		all = append(all, r.elems...)
	}
	if off != l.n {
		return fmt.Errorf("runs hold %d elements, Len says %d", off, l.n)
	}
	if !slices.IsSorted(all) {
		return fmt.Errorf("elements out of order across runs")
	}
	if !slices.Equal(all, want) || !slices.Equal(l.Flat(), want) {
		return fmt.Errorf("list reads %v, want %v", all, want)
	}
	return nil
}

// fresh counts l's runs that old does not hold: the runs a write copied.
func fresh[T any](old, l List[T]) int {
	type id struct {
		p *T
		n int
	}
	had := make(map[id]bool, len(old.runs))
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

func TestOfSharesTheArray(t *testing.T) {
	s := make([]int, 3*B+7)
	for i := range s {
		s[i] = i
	}
	l := Of(s)
	if err := check(l, s); err != nil {
		t.Fatal(err)
	}
	if len(l.runs) != 4 || &l.runs[3].elems[0] != &s[3*B] {
		t.Errorf("Of cut %d runs, or copied: want 4 runs over the caller's array", len(l.runs))
	}
	if err := check(List[int]{}, nil); err != nil {
		t.Error(err)
	}
}

// with is what With does to a sorted slice: every instance of del's
// elements out, then one instance of each of add's in.
func with(s, add, del []int) []int {
	out := slices.DeleteFunc(slices.Clone(s), func(x int) bool { return slices.Contains(del, x) })
	out = append(out, add...)
	slices.Sort(out)
	return out
}

// TestWritesCopyOneRun pins what makes a write cost O(n/B + B): a write
// of one element leaves every run but the one it lands in (two after a
// split) shared with the list it was made from, and leaves that list as
// it was. A batch copies the header once.
func TestWritesCopyOneRun(t *testing.T) {
	var want []int
	for i := range 10 * B {
		want = append(want, 2*i)
	}
	l := Of(slices.Clone(want))
	for step := range 3 * B {
		x := (step * 7919) % (20 * B)
		next := l.With([]int{x}, nil, cmp.Compare[int])
		if n := fresh(l, next); n > 2 {
			t.Fatalf("step %d: an insert copied %d runs", step, n)
		}
		if err := check(l, want); err != nil {
			t.Fatalf("step %d: the old list changed: %v", step, err)
		}
		want = with(want, []int{x}, nil)
		if err := check(next, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		l = next
	}
	for step := range 3 * B {
		x := want[(step*104729)%len(want)]
		next := l.With(nil, []int{x}, cmp.Compare[int])
		if n := fresh(l, next); n > 2 {
			t.Fatalf("step %d: a delete copied %d runs", step, n)
		}
		want = with(want, nil, []int{x})
		if err := check(next, want); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		l = next
	}
	// New elements past the end, as fresh term IDs are: one run copied.
	add := []int{1 << 20, 1<<20 + 1, 1<<20 + 2}
	if next := l.With(add, nil, cmp.Compare[int]); fresh(l, next) != 1 || check(next, with(want, add, nil)) != nil {
		t.Errorf("a batch past the end copied %d runs, want 1", fresh(l, next))
	}
}

// FuzzRuns drives a list through writes, seeks and range scans against
// a sorted slice, checking the list's structure and contents after every
// write and that the list written is unchanged. The input's first two
// bytes size the initial list (even values, cut by Of); then three bytes
// an operation: the low two bits of the first pick an insert (a burst of
// up to 505 elements over four values, enough to split a run), a delete
// (the values at a range of positions and the value the other two bytes
// make, that value put back when bit 2 is set), a seek or a scan, and
// the other two bytes are a value or a position and a width.
func FuzzRuns(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 0, 0xfc, 0, 9, 0, 0, 0})
	f.Add([]byte{4, 0, 0xfc, 1, 0, 0xfc, 1, 0, 1, 0x80, 0xff, 5, 2, 1, 3, 0x10, 0xf0})
	f.Add([]byte{2, 1, 1, 0, 0xff, 1, 0xff, 0xff, 2, 0x40, 0x41, 3, 0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		var want []int
		for i := range int(data[0])<<4 | int(data[1])>>4 {
			want = append(want, 2*i)
		}
		l := Of(slices.Clone(want))
		if err := check(l, want); err != nil {
			t.Fatal(err)
		}
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			op, a, b := data[0], int(data[1]), int(data[2])
			x, pos := a<<8|b, a*(len(want)+1)/256
			var add, del []int
			switch op & 3 {
			case 0:
				for j := range 1 + int(op>>2)*8 {
					add = append(add, x+j%4)
				}
			case 1:
				for _, v := range want[pos:min(pos+b%(B+B/2), len(want))] {
					del = append(del, v)
				}
				del = append(del, x)
				if op&4 != 0 {
					add = []int{x}
				}
			case 2:
				i, found := l.Search(x, cmp.Compare[int])
				wi, wfound := slices.BinarySearch(want, x)
				if i != wi || found != wfound {
					t.Fatalf("Search(%d) = %d, %v; want %d, %v", x, i, found, wi, wfound)
				}
				continue
			case 3:
				hi := min(pos+b*8, len(want))
				var got []int
				for s := range l.Slices(pos, hi) {
					if len(s) == 0 {
						t.Fatalf("Slices(%d, %d) yielded an empty slice", pos, hi)
					}
					got = append(got, s...)
				}
				if !slices.Equal(got, want[pos:hi]) {
					t.Fatalf("Slices(%d, %d) = %v, want %v", pos, hi, got, want[pos:hi])
				}
				if pos < len(want) && l.At(pos) != want[pos] {
					t.Fatalf("At(%d) = %d, want %d", pos, l.At(pos), want[pos])
				}
				continue
			}
			slices.Sort(add)
			slices.Sort(del)
			del = slices.Compact(del)
			next, nextWant := l.With(add, del, cmp.Compare[int]), with(want, add, del)
			if err := check(l, want); err != nil {
				t.Fatalf("a write changed the list it was applied to: %v", err)
			}
			if err := check(next, nextWant); err != nil {
				t.Fatalf("after With(%v, %v): %v", add, del, err)
			}
			l, want = next, nextWant
		}
	})
}
