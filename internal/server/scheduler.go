package server

import (
	"context"
	"errors"
	"sync"
)

// ErrOverloaded is returned by Scheduler.Run when the in-flight limit is
// reached; the HTTP layer maps it to 503 Service Unavailable so overload
// sheds load instead of queueing without bound.
var ErrOverloaded = errors.New("server: query load limit reached")

// ErrClosed is returned for calls abandoned by Close.
var ErrClosed = errors.New("server: scheduler closed")

// slots is a counting semaphore: a send takes a slot, a receive returns
// it, len is the number held.
type slots chan struct{}

// tryAcquire takes a slot if one is free and never blocks.
func (s slots) tryAcquire() bool {
	select {
	case s <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s slots) release() { <-s }

// Scheduler bounds concurrent query execution with two counters and no
// goroutines of its own: fn runs on the goroutine that called Run. At
// most maxInFlight calls are admitted (waiting + running); beyond that
// Run fails fast with ErrOverloaded. At most workers of the admitted
// calls run at once; the rest wait for a slot.
type Scheduler struct {
	admitted  slots
	running   slots
	quit      chan struct{}
	closeOnce sync.Once
}

// NewScheduler returns a scheduler running at most workers calls at
// once and admitting at most maxInFlight. Both arguments must be
// positive.
func NewScheduler(workers, maxInFlight int) *Scheduler {
	if workers <= 0 {
		workers = 1
	}
	if maxInFlight < workers {
		maxInFlight = workers
	}
	return &Scheduler{
		admitted: make(slots, maxInFlight),
		running:  make(slots, workers),
		quit:     make(chan struct{}),
	}
}

// Run runs fn under ctx on the caller's goroutine and returns its error.
// A call whose context expires while it waits for a slot returns ctx's
// error at once, and fn never runs.
func (s *Scheduler) Run(ctx context.Context, fn func(context.Context) error) error {
	if s.closed() {
		return ErrClosed
	}
	if !s.admitted.tryAcquire() {
		return ErrOverloaded
	}
	defer s.admitted.release()
	select {
	case s.running <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.quit:
		return ErrClosed
	}
	defer s.running.release()
	// select picks at random among ready cases, so a slot may have been
	// taken although the scheduler closed or ctx expired meanwhile.
	if s.closed() {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(ctx)
}

func (s *Scheduler) closed() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// InFlight reports the number of admitted calls (waiting plus running).
func (s *Scheduler) InFlight() int64 { return int64(len(s.admitted)) }

// Close fails waiting calls with ErrClosed and returns once every
// running call has finished; Run calls after Close fail with ErrClosed.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		close(s.quit)
		// Taking every slot waits out the calls that hold one, and keeps
		// them taken: no call can start once Close has returned.
		for i := 0; i < cap(s.running); i++ {
			s.running <- struct{}{}
		}
	})
}
