package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gstored/internal/query"
)

// stackCancelCtx becomes canceled at the first Err call whose call stack
// trip accepts: a cancellation that lands while a chosen piece of code is
// running, which only code that polls the context can notice.
type stackCancelCtx struct {
	context.Context
	trip func(functions []string) bool
	mu   sync.Mutex
	err  error
}

func (c *stackCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		var functions []string
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			functions = append(functions, f.Function)
		}
		if c.trip(functions) {
			c.err = context.Canceled
		}
	}
	return c.err
}

// runUnder runs q as ExecuteContext does, but with ctx itself as the
// execution's context rather than a context derived from it: the
// stages' polls then reach a stackCancelCtx's Err.
func runUnder(ctx context.Context, e *Engine, q *query.Graph, cfg Config) error {
	h := &holding{ctx: ctx, cancel: func(error) {}, budget: e.budget}
	c := &collector{h: h}
	_, err := e.run(h, q, cfg, c.push)
	return err
}

// inWalk accepts a stack inside lec.Walk: the one closure walk every
// mode runs, the LEC stage's in LO and Full, the assembly's below.
func inWalk(functions []string) bool {
	return slices.ContainsFunc(functions, func(f string) bool { return strings.HasSuffix(f, "gstored/internal/lec.Walk") })
}

// TestLECStageIsCancellable: the walk polls the execution context like
// every other stage, in every mode, and the run returns the context's
// error.
func TestLECStageIsCancellable(t *testing.T) {
	ex, e := paperEngine(t)
	for _, mode := range allModes {
		parent, cancel := context.WithCancel(context.Background())
		err := runUnder(&stackCancelCtx{Context: parent, trip: inWalk}, e, ex.Query, Config{Mode: mode, EvalWorkers: 1})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled from inside the walk", mode, err)
		}
	}
}

// inExpansion accepts a stack inside assembly's expansion of a complete
// combination, called from within lec.Walk: frames are listed callee
// first, so an assembly frame before the walk's.
func inExpansion(functions []string) bool {
	walk := slices.IndexFunc(functions, func(f string) bool { return strings.HasSuffix(f, "gstored/internal/lec.Walk") })
	return walk > 0 && slices.ContainsFunc(functions[:walk], func(f string) bool { return strings.Contains(f, "gstored/internal/assembly.") })
}

// TestExpansionIsCancellable: the walk expands each complete combination
// as it finds it, in every mode, and the expansion polls the execution
// context, so a cancellation that lands there ends the run with the
// context's error.
func TestExpansionIsCancellable(t *testing.T) {
	ex, e := paperEngine(t)
	for _, mode := range allModes {
		parent, cancel := context.WithCancel(context.Background())
		err := runUnder(&stackCancelCtx{Context: parent, trip: inExpansion}, e, ex.Query, Config{Mode: mode, EvalWorkers: 1})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled from inside the expansion", mode, err)
		}
	}
}
