// Package trace records per-execution query traces: one span per
// pipeline stage (parse, candidates, partial evaluation, LEC, assembly,
// serialize), attributed to the fragment/site that performed the work,
// with wall-clock offsets from the start of the execution. A Trace is
// attached to a context by the layer that owns the request (the HTTP
// server, the explain CLI) and picked up by the engine via FromContext —
// the engine never creates traces on its own, so untraced executions pay
// only a nil context-value lookup.
//
// Traces attach to the context rather than the Engine because the Engine
// is shared: any number of concurrent executions run over one immutable
// cluster generation, and a per-Engine recorder would interleave their
// spans. The context is the one value already scoped to exactly one
// execution end to end.
package trace

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Coordinator is the Fragment value of spans not attributable to one
// site: coordinator-side stages (LEC join, assembly) and request-level
// stages (parse, serialize).
const Coordinator = -1

// Span is one timed stage of a query execution. Offsets are relative to
// the Trace's start, so a span timeline can be reconstructed without
// absolute timestamps.
type Span struct {
	// Stage names the pipeline stage: "parse", "candidates", "partial",
	// "lec", "assembly", "serialize", or a caller-defined label.
	Stage string `json:"stage"`
	// Fragment is the site that performed the work, or Coordinator (-1)
	// for coordinator/request-level stages.
	Fragment int `json:"fragment"`
	// StartMicros is the span's start offset from the trace start.
	StartMicros int64 `json:"start_us"`
	// DurationMicros is the span's wall-clock duration.
	DurationMicros int64 `json:"duration_us"`
}

// Trace accumulates the spans of one query execution. It is safe for
// concurrent use — sites record their spans in parallel — and all
// methods are nil-safe no-ops, so instrumented code can record
// unconditionally without checking whether a trace is attached.
type Trace struct {
	mu    sync.Mutex
	start time.Time
	spans []Span
}

// New returns a trace whose span offsets are measured from now.
func New() *Trace { return &Trace{start: time.Now()} }

// Start returns the trace's start time (zero for a nil trace).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Span records one completed stage spanning [from, from+d). Nil-safe.
func (t *Trace) Span(stage string, fragment int, from time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := Span{
		Stage:          stage,
		Fragment:       fragment,
		StartMicros:    from.Sub(t.start).Microseconds(),
		DurationMicros: d.Microseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ordered by start offset
// (ties broken by fragment, then stage), so concurrent sites serialize
// into a stable timeline. Nil-safe (returns nil).
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartMicros != out[j].StartMicros {
			return out[i].StartMicros < out[j].StartMicros
		}
		if out[i].Fragment != out[j].Fragment {
			return out[i].Fragment < out[j].Fragment
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

type ctxKey struct{}

// NewContext returns ctx carrying t; executions derived from it record
// their stage spans into t.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil — and nil is
// fine: every Trace method no-ops on a nil receiver.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
