package engine

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// lecCancelCtx becomes canceled at the first Err call made from inside
// lec.Prune: a cancellation that lands while the LEC stage is walking
// its closure, which only a walk that polls can notice.
type lecCancelCtx struct {
	context.Context
	mu  sync.Mutex
	err error
}

func (c *lecCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		for more := true; more && c.err == nil; {
			var f runtime.Frame
			if f, more = frames.Next(); strings.Contains(f.Function, "gstored/internal/lec.Prune") {
				c.err = context.Canceled
			}
		}
	}
	return c.err
}

// TestLECStageIsCancellable: the LEC pruning stage polls the execution
// context like every other stage, and the engine returns the context's
// error; modes without that stage never trip the context.
func TestLECStageIsCancellable(t *testing.T) {
	ex, e := paperEngine(t)
	for _, mode := range allModes {
		parent, cancel := context.WithCancel(context.Background())
		_, err := e.ExecuteContext(&lecCancelCtx{Context: parent}, ex.Query, Config{Mode: mode, EvalWorkers: 1})
		cancel()
		if mode >= LO {
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%v: err = %v, want context.Canceled from inside the LEC stage", mode, err)
			}
		} else if err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}
