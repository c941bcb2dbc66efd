// Package pool provides the bounded, caller-participating worker pool
// that drives parallel partial evaluation (ISSUE 8). One Pool governs
// all evaluation tasks of a single query execution — per-site stages
// and intra-fragment seed chunks alike — so total concurrency stays at
// the configured width no matter how stages nest.
//
// The design is a semaphore, not a goroutine farm: Do spawns a helper
// goroutine only when a slot is free and otherwise runs the task on
// the calling goroutine. That gives two properties the engine relies
// on:
//
//   - Nesting never deadlocks. A site task that itself calls Do for
//     its seed chunks makes progress even when every slot is taken,
//     because the caller executes tasks inline.
//   - Workers(1) is an exact sequential oracle. With width 1 no helper
//     ever spawns, so every task runs inline in submission order —
//     byte-identical to the pre-pool sequential code path, which keeps
//     the old behavior reachable for equivalence tests via
//     -eval-workers=1.
//
// Split and Run are the one chunk rule of every pooled stage (store
// matching, partial evaluation, the LEC closure): Split cuts a range
// into contiguous chunks — one on a sequential pool — and Run runs
// each as one timed task, so width 1 takes the same loop as width N.
package pool

import (
	"runtime"
	"sync"
	"time"
)

// Pool bounds the number of goroutines evaluating tasks concurrently.
// The zero value and the nil pool are both valid and sequential.
type Pool struct {
	// sem holds width-1 slots: the calling goroutine is the implicit
	// extra worker, so cap(sem)+1 goroutines run tasks at peak.
	sem chan struct{}
}

// New returns a pool running at most workers tasks concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0); workers == 1 yields a
// purely sequential pool.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers-1)}
}

// Workers reports the concurrency bound. A nil pool is sequential.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return cap(p.sem) + 1
}

// Do runs every task and returns once all have completed. Tasks are
// handed to helper goroutines while slots are free; when the pool is
// saturated the caller runs the task itself before submitting the
// next, so Do never blocks waiting for capacity it could provide.
// On a sequential pool all tasks run inline in submission order.
func (p *Pool) Do(tasks ...func()) {
	if p == nil || cap(p.sem) == 0 || len(tasks) <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	for _, t := range tasks {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.sem
					wg.Done()
				}()
				t()
			}()
		default:
			t()
		}
	}
	wg.Wait()
}

// Split cuts n items into the chunks a pooled stage runs, as [lo, hi)
// pairs in order: the whole range on a nil or one-wide pool and for
// n == 0, else up to four contiguous chunks per worker, so that late
// chunks even out early stragglers. Contiguous chunks keep per-chunk
// results mergeable in index order.
func (p *Pool) Split(n int) [][2]int {
	if w := p.Workers(); w > 1 && n > 0 {
		return chunks(n, 4*w)
	}
	return [][2]int{{0, n}}
}

// Run runs body once per chunk, chunk k over [lo, hi) as one task, and
// reports each task's wall time to onTask when it is non-nil (then
// possibly concurrently).
func (p *Pool) Run(chunks [][2]int, onTask func(time.Duration), body func(k, lo, hi int)) {
	tasks := make([]func(), len(chunks))
	for k, ch := range chunks {
		tasks[k] = func() {
			var start time.Time
			if onTask != nil {
				start = time.Now()
			}
			body(k, ch[0], ch[1])
			if onTask != nil {
				onTask(time.Since(start))
			}
		}
	}
	p.Do(tasks...)
}

// chunks splits n items into at most parts contiguous index ranges of
// near-equal size.
func chunks(n, parts int) [][2]int {
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	for i := 0; i < parts; i++ {
		lo := i * n / parts
		hi := (i + 1) * n / parts
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
