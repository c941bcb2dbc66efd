package cluster

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/pool"
)

func build(t *testing.T) *Cluster {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return New(d)
}

func TestClusterSites(t *testing.T) {
	c := build(t)
	if len(c.Sites) != 3 {
		t.Fatalf("%d sites", len(c.Sites))
	}
	for i, s := range c.Sites {
		local, ok := s.(*LocalSite)
		if !ok {
			t.Fatalf("site %d is %T, want *LocalSite", i, s)
		}
		if s.ID() != i || local.Fragment().ID != i {
			t.Errorf("site %d mislabeled", i)
		}
	}
}

func TestParallelRunsEverySite(t *testing.T) {
	c := build(t)
	var n int32
	d := c.ParallelPool(pool.New(3), func(i int, s Site) { atomic.AddInt32(&n, 1) })
	if n != 3 {
		t.Errorf("ran on %d sites", n)
	}
	if d <= 0 {
		t.Error("non-positive duration")
	}
}

func TestLocalSwapGeneration(t *testing.T) {
	c := build(t)
	ctx := context.Background()
	s := c.Sites[0]

	// Prepare with a fragment payload yields a fresh handle at the new
	// epoch; the old handle keeps serving its generation.
	replacement := c.Sites[1].(*LocalSite).Fragment()
	next, err := s.SwapGeneration(ctx, GenerationSwap{Phase: SwapPrepare, Epoch: 2, Fragment: replacement})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	if next == s {
		t.Error("prepare returned the receiver; want a fresh immutable handle")
	}
	if got := next.(*LocalSite).Fragment(); got != replacement {
		t.Error("prepared handle does not serve the shipped fragment")
	}
	if got := s.(*LocalSite).Fragment(); got.ID != 0 {
		t.Error("old handle lost its fragment")
	}
	info, err := next.Stats(ctx)
	if err != nil || info.Epoch != 2 {
		t.Errorf("Stats = %+v, %v; want epoch 2", info, err)
	}

	// Prepare with nil carries the current fragment into the new epoch.
	carried, err := s.SwapGeneration(ctx, GenerationSwap{Phase: SwapPrepare, Epoch: 2})
	if err != nil {
		t.Fatalf("carry prepare: %v", err)
	}
	if carried.(*LocalSite).Fragment() != s.(*LocalSite).Fragment() {
		t.Error("nil-fragment prepare did not carry the current fragment")
	}

	// Commit is a no-op in-process (publication is the caller's atomic
	// generation store).
	committed, err := next.SwapGeneration(ctx, GenerationSwap{Phase: SwapCommit, Epoch: 2})
	if err != nil || committed != next {
		t.Errorf("commit = %v, %v; want receiver, nil", committed, err)
	}

	if _, err := s.SwapGeneration(ctx, GenerationSwap{Phase: 0, Epoch: 2}); err == nil {
		t.Error("unknown swap phase accepted")
	}
}

func TestNetworkMetering(t *testing.T) {
	n := NewNetwork()
	n.Count(150, 2)
	n.Count(40, 4)
	if n.Bytes != 190 || n.Messages != 6 {
		t.Errorf("bytes = %d, messages = %d, want 190, 6", n.Bytes, n.Messages)
	}
	n.Count(810, 4)
	est := n.EstimateTime()
	if est <= 0 {
		t.Error("estimate should be positive")
	}
	// 10 messages × 100µs dominates 1000 bytes of transfer.
	if est < time.Millisecond {
		t.Errorf("estimate %v below latency floor", est)
	}
}

func TestNetworkEstimateZeroModel(t *testing.T) {
	n := &Network{} // zero link model must fall back to defaults
	n.Count(1<<20, 1)
	if n.EstimateTime() <= 0 {
		t.Error("zero-model estimate should fall back to DefaultLink")
	}
}
