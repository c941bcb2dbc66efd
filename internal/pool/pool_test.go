package pool

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSequentialOracle: width 1 runs every task inline in submission
// order — the property the -eval-workers=1 equivalence oracle rests on.
func TestSequentialOracle(t *testing.T) {
	p := New(1)
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", p.Workers())
	}
	var got []int
	var tasks []func()
	for i := 0; i < 100; i++ {
		tasks = append(tasks, func() { got = append(got, i) })
	}
	p.Do(tasks...) // no goroutines: appending without a lock must be race-free
	for i, v := range got {
		if v != i {
			t.Fatalf("task order[%d] = %d, want %d", i, v, i)
		}
	}
	if len(got) != 100 {
		t.Fatalf("ran %d tasks, want 100", len(got))
	}
}

func TestNilPoolSequential(t *testing.T) {
	var p *Pool
	if p.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", p.Workers())
	}
	n := 0
	p.Do(func() { n++ }, func() { n++ })
	if n != 2 {
		t.Fatalf("nil pool ran %d tasks, want 2", n)
	}
}

// TestBoundedConcurrency: the high-water mark of concurrently running
// tasks never exceeds the configured width.
func TestBoundedConcurrency(t *testing.T) {
	const width = 4
	p := New(width)
	var cur, peak atomic.Int64
	var tasks []func()
	for i := 0; i < 200; i++ {
		tasks = append(tasks, func() {
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			for j := 0; j < 1000; j++ {
				_ = j * j
			}
			cur.Add(-1)
		})
	}
	p.Do(tasks...)
	if got := peak.Load(); got > width {
		t.Fatalf("peak concurrency %d exceeds width %d", got, width)
	}
}

// TestNestedDoNoDeadlock: tasks that call Do on the same saturated pool
// must make progress because the caller participates.
func TestNestedDoNoDeadlock(t *testing.T) {
	p := New(2)
	var n atomic.Int64
	var outer []func()
	for i := 0; i < 8; i++ {
		outer = append(outer, func() {
			var inner []func()
			for j := 0; j < 8; j++ {
				inner = append(inner, func() { n.Add(1) })
			}
			p.Do(inner...)
		})
	}
	p.Do(outer...)
	if n.Load() != 64 {
		t.Fatalf("ran %d inner tasks, want 64", n.Load())
	}
}

// TestConcurrentDo: independent Do calls from many goroutines share the
// semaphore safely.
func TestConcurrentDo(t *testing.T) {
	p := New(3)
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Do(func() { n.Add(1) }, func() { n.Add(1) }, func() { n.Add(1) })
		}()
	}
	wg.Wait()
	if n.Load() != 48 {
		t.Fatalf("ran %d tasks, want 48", n.Load())
	}
}

func TestChunks(t *testing.T) {
	cases := []struct {
		n, parts int
		want     int // number of chunks
	}{
		{0, 4, 0}, {1, 4, 1}, {4, 4, 4}, {10, 3, 3}, {10, 100, 10}, {7, 0, 1},
	}
	for _, c := range cases {
		got := chunks(c.n, c.parts)
		if len(got) != c.want {
			t.Errorf("chunks(%d,%d) = %d chunks, want %d", c.n, c.parts, len(got), c.want)
		}
		next := 0
		for _, ch := range got {
			if ch[0] != next || ch[1] <= ch[0] {
				t.Errorf("chunks(%d,%d): bad range %v after %d", c.n, c.parts, ch, next)
			}
			next = ch[1]
		}
		if c.n > 0 && next != c.n {
			t.Errorf("chunks(%d,%d) covers [0,%d), want [0,%d)", c.n, c.parts, next, c.n)
		}
	}
}

// TestSplit: a sequential pool takes the whole range as one chunk, n == 0
// included; a width-w pool cuts at most 4w non-empty chunks that cover
// [0, n) in order.
func TestSplit(t *testing.T) {
	for _, p := range []*Pool{nil, New(1)} {
		for _, n := range []int{0, 1, 1000} {
			if got := p.Split(n); !reflect.DeepEqual(got, [][2]int{{0, n}}) {
				t.Errorf("width %d: Split(%d) = %v, want [[0 %d]]", p.Workers(), n, got, n)
			}
		}
	}
	for _, w := range []int{2, 3, 8} {
		for _, n := range []int{1, 5, 1000} {
			got := New(w).Split(n)
			if len(got) > 4*w {
				t.Errorf("width %d: Split(%d) gave %d chunks, want at most %d", w, n, len(got), 4*w)
			}
			next := 0
			for _, ch := range got {
				if ch[0] != next || ch[1] <= ch[0] {
					t.Errorf("width %d: Split(%d): bad chunk %v after %d", w, n, ch, next)
				}
				next = ch[1]
			}
			if next != n {
				t.Errorf("width %d: Split(%d) covers [0,%d)", w, n, next)
			}
		}
	}
}

// TestRun: the body runs once per chunk with that chunk's index and
// bounds, and onTask fires once per chunk.
func TestRun(t *testing.T) {
	for _, w := range []int{1, 4} {
		p := New(w)
		chunks := p.Split(1000)
		got := make([][2]int, len(chunks))
		var runs, timed atomic.Int64
		p.Run(chunks, func(time.Duration) { timed.Add(1) }, func(k, lo, hi int) {
			runs.Add(1)
			got[k] = [2]int{lo, hi}
		})
		if !reflect.DeepEqual(got, chunks) || runs.Load() != int64(len(chunks)) {
			t.Errorf("width %d: %d runs saw chunks %v, want %v", w, runs.Load(), got, chunks)
		}
		if timed.Load() != int64(len(chunks)) {
			t.Errorf("width %d: onTask fired %d times for %d chunks", w, timed.Load(), len(chunks))
		}
	}
}
