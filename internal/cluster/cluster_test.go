package cluster

import (
	"context"
	"errors"
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

	// Installing a fragment yields a fresh handle at the new epoch; the
	// old handle keeps serving its generation.
	replacement := c.Sites[1].(*LocalSite).Fragment()
	next, err := s.SwapGeneration(ctx, GenerationSwap{Epoch: 2, Fragment: replacement})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if next == s {
		t.Error("install returned the receiver; want a fresh immutable handle")
	}
	if got := next.(*LocalSite).Fragment(); got != replacement {
		t.Error("installed handle does not serve the shipped fragment")
	}
	if got := s.(*LocalSite).Fragment(); got.ID != 0 {
		t.Error("old handle lost its fragment")
	}
	info, err := next.Stats(ctx)
	if err != nil || info.Epoch != 2 {
		t.Errorf("Stats = %+v, %v; want epoch 2", info, err)
	}

	// A nil fragment carries the base handle's fragment into the new
	// epoch; the phase a caller still spells is ignored.
	for _, phase := range []SwapPhase{0, SwapPrepare, SwapCommit} {
		carried, err := s.SwapGeneration(ctx, GenerationSwap{Phase: phase, Epoch: 2})
		if err != nil {
			t.Fatalf("phase %d carry: %v", phase, err)
		}
		if carried.(*LocalSite).Fragment() != s.(*LocalSite).Fragment() {
			t.Errorf("phase %d: nil-fragment install did not carry the base fragment", phase)
		}
	}

	// A handle with nothing to carry answers need-sync.
	if _, err := NewLocalSite(0, nil, 0).SwapGeneration(ctx, GenerationSwap{Epoch: 1}); !errors.Is(err, ErrNeedSync) {
		t.Errorf("carry from an empty handle: %v, want need-sync", err)
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
