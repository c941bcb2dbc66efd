package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	tr.Span("partial", 0, time.Now(), time.Millisecond)
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil trace Spans() = %v, want nil", got)
	}
	if !tr.Start().IsZero() {
		t.Fatalf("nil trace Start() = %v, want zero", tr.Start())
	}
}

func TestFromContextWithoutTrace(t *testing.T) {
	if tr := FromContext(context.Background()); tr != nil {
		t.Fatalf("FromContext(background) = %v, want nil", tr)
	}
}

func TestRoundTripThroughContext(t *testing.T) {
	tr := New()
	ctx := NewContext(context.Background(), tr)
	if got := FromContext(ctx); got != tr {
		t.Fatalf("FromContext = %p, want %p", got, tr)
	}
}

func TestSpansOrderedByStart(t *testing.T) {
	tr := New()
	base := tr.Start()
	tr.Span("assembly", Coordinator, base.Add(30*time.Microsecond), 10*time.Microsecond)
	tr.Span("partial", 1, base.Add(10*time.Microsecond), 15*time.Microsecond)
	tr.Span("partial", 0, base.Add(10*time.Microsecond), 12*time.Microsecond)
	tr.Span("parse", Coordinator, base, 5*time.Microsecond)

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	wantStages := []string{"parse", "partial", "partial", "assembly"}
	wantFrags := []int{Coordinator, 0, 1, Coordinator}
	for i, s := range spans {
		if s.Stage != wantStages[i] || s.Fragment != wantFrags[i] {
			t.Errorf("span %d = {%s frag=%d}, want {%s frag=%d}", i, s.Stage, s.Fragment, wantStages[i], wantFrags[i])
		}
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].StartMicros < spans[i-1].StartMicros {
			t.Errorf("spans out of order at %d: %d < %d", i, spans[i].StartMicros, spans[i-1].StartMicros)
		}
	}
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	for site := 0; site < 16; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Span("partial", site, time.Now(), time.Microsecond)
			}
		}(site)
	}
	wg.Wait()
	if got := len(tr.Spans()); got != 1600 {
		t.Fatalf("got %d spans, want 1600", got)
	}
}
