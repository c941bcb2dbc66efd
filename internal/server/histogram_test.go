package server

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	if h.Count() != 0 {
		t.Fatalf("zero histogram count = %d", h.Count())
	}
	h.Observe(300 * time.Microsecond) // <= 0.0005: first bucket
	h.Observe(500 * time.Microsecond) // == 0.0005: bounds are inclusive
	h.Observe(700 * time.Millisecond) // between 0.5 and 1
	h.Observe(2 * time.Minute)        // past the last bound: +Inf
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.buckets[0].Load(); got != 2 {
		t.Errorf("first bucket = %d, want 2 (inclusive upper bound)", got)
	}
	if got := h.buckets[len(histBuckets)].Load(); got != 1 {
		t.Errorf("+Inf bucket = %d, want 1", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i) * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 8000 {
		t.Errorf("count = %d, want 8000", got)
	}
}

func TestWriteHistogramsExposition(t *testing.T) {
	var a, b Histogram
	a.Observe(time.Millisecond)
	a.Observe(time.Second)
	b.Observe(time.Minute)
	var sb strings.Builder
	writeHistograms(&sb, "test_seconds", "Test.", "kind", []labeledHistogram{
		{label: "a", h: &a}, {label: "b", h: &b},
	})
	out := sb.String()

	if !strings.HasPrefix(out, "# HELP test_seconds Test.\n# TYPE test_seconds histogram\n") {
		t.Errorf("missing header:\n%s", out)
	}
	for _, want := range []string{
		`test_seconds_bucket{kind="a",le="0.001"} 1`, // 1ms lands exactly on the bound
		`test_seconds_bucket{kind="a",le="1"} 2`,     // cumulative: both observations
		`test_seconds_bucket{kind="a",le="+Inf"} 2`,  // mandatory +Inf
		`test_seconds_count{kind="a"} 2`,             // equals +Inf
		`test_seconds_sum{kind="a"} 1.001`,           // 1ms + 1s
		`test_seconds_bucket{kind="b",le="30"} 0`,    // a minute exceeds every bound
		`test_seconds_bucket{kind="b",le="+Inf"} 1`,
		`test_seconds_count{kind="b"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, out)
		}
	}
}
