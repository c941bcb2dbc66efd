package server

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestSchedulerRunsTasks(t *testing.T) {
	s := NewScheduler(2, 4)
	defer s.Close()
	ran := false
	err := s.Run(context.Background(), func(ctx context.Context) error {
		ran = true
		return nil
	})
	if err != nil || !ran {
		t.Fatalf("Run = %v, ran = %v", err, ran)
	}
	sentinel := errors.New("boom")
	if err := s.Run(context.Background(), func(context.Context) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Run should surface the task error, got %v", err)
	}
}

func TestSchedulerAdmissionControl(t *testing.T) {
	s := NewScheduler(1, 2)
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	errs := make(chan error, 2)
	// Task 1 occupies the only worker; task 2 sits admitted in the queue.
	go func() {
		errs <- s.Run(context.Background(), func(context.Context) error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	go func() {
		errs <- s.Run(context.Background(), func(context.Context) error { return nil })
	}()
	// Wait for task 2 to be admitted (in-flight reaches the limit).
	deadline := time.After(2 * time.Second)
	for s.InFlight() < 2 {
		select {
		case <-deadline:
			t.Fatal("second task never admitted")
		default:
			time.Sleep(time.Millisecond)
		}
	}

	// Task 3 exceeds the in-flight limit and must be shed immediately.
	if err := s.Run(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("over-limit Run = %v, want ErrOverloaded", err)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted task failed: %v", err)
		}
	}
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after drain = %d", n)
	}
}

func TestSchedulerSkipsExpiredQueuedTask(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	go s.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expires while the task waits in the queue
	errCh := make(chan error, 1)
	ran := false
	go func() {
		errCh <- s.Run(ctx, func(context.Context) error {
			ran = true
			return nil
		})
	}()
	close(release)
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("expired queued task = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("expired task must not run")
	}
}

func TestSchedulerCloseFailsQueuedTasks(t *testing.T) {
	s := NewScheduler(1, 4)
	started := make(chan struct{})
	release := make(chan struct{})
	go s.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started
	queued := make(chan error, 1)
	go func() {
		queued <- s.Run(context.Background(), func(context.Context) error { return nil })
	}()
	for s.InFlight() < 2 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		close(release) // let the running task finish so Close can drain
	}()
	s.Close()
	if err := <-queued; !errors.Is(err, ErrClosed) && err != nil {
		t.Fatalf("queued task after Close = %v, want ErrClosed or nil", err)
	}
	// Run after Close must fail fast, not hang on a dead worker pool.
	if err := s.Run(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close = %v, want ErrClosed", err)
	}
}

// TestSchedulerExpiredWaiterReturnsAtOnce: a call waiting for a slot
// returns its context's error when the context expires, while the slot
// it waited for is still occupied — an expired request is answered at
// its deadline, not when somebody else's query happens to finish.
func TestSchedulerExpiredWaiterReturnsAtOnce(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Close()

	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	go s.Run(context.Background(), func(context.Context) error {
		close(started)
		<-release
		return nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		errCh <- s.Run(ctx, func(context.Context) error {
			t.Error("expired call must not run")
			return nil
		})
	}()
	for s.InFlight() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("expired waiting call = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("expired call still waiting: it is held until the occupied slot frees")
	}
	if n := s.InFlight(); n != 1 {
		t.Errorf("in-flight after the waiter left = %d, want 1 (the running call)", n)
	}
}

// TestSchedulerStartsNoGoroutines: the scheduler is two counters on the
// caller's goroutine — constructing one and running calls through it
// leaves the goroutine count where it was.
func TestSchedulerStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler(4, 8)
	defer s.Close()
	for i := 0; i < 16; i++ {
		if err := s.Run(context.Background(), func(context.Context) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines: %d before NewScheduler, %d after 16 Runs", before, after)
	}
}

// TestSchedulerPanicReleasesSlot: a panicking fn gives back its slot and
// its in-flight count on the way up, so the next call is admitted and
// runs instead of finding the scheduler wedged.
func TestSchedulerPanicReleasesSlot(t *testing.T) {
	s := NewScheduler(1, 1)
	defer s.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the caller")
			}
		}()
		s.Run(context.Background(), func(context.Context) error { panic("boom") })
	}()
	if n := s.InFlight(); n != 0 {
		t.Errorf("in-flight after a panicking call = %d, want 0", n)
	}
	ran := false
	if err := s.Run(context.Background(), func(context.Context) error { ran = true; return nil }); err != nil || !ran {
		t.Fatalf("Run after a panicking call = %v, ran = %v", err, ran)
	}
}
