package cluster

import (
	"context"
	"errors"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
)

func build(t *testing.T) []Site {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return LocalSites(d, 1)
}

func TestClusterSites(t *testing.T) {
	sites := build(t)
	if len(sites) != 3 {
		t.Fatalf("%d sites", len(sites))
	}
	for i, s := range sites {
		local, ok := s.(*LocalSite)
		if !ok {
			t.Fatalf("site %d is %T, want *LocalSite", i, s)
		}
		if s.ID() != i || local.Fragment().ID != i {
			t.Errorf("site %d mislabeled", i)
		}
	}
}

func TestLocalSwapGeneration(t *testing.T) {
	sites := build(t)
	ctx := context.Background()
	s := sites[0]

	// Installing a fragment yields a fresh handle at the new epoch; the
	// old handle keeps serving its generation.
	replacement := sites[1].(*LocalSite).Fragment()
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

	// With a delta beside it, the in-process site still installs the
	// coordinator's fragment itself: no copy, no second patch.
	withDelta, err := s.SwapGeneration(ctx, GenerationSwap{Epoch: 2, Fragment: replacement, Delta: &fragment.Delta{}})
	if err != nil || withDelta.(*LocalSite).Fragment() != replacement {
		t.Errorf("install with a delta = %v, %v; want the shipped fragment itself", withDelta, err)
	}

	// A handle with nothing to carry answers need-sync.
	if _, err := NewLocalSite(0, nil, 0).SwapGeneration(ctx, GenerationSwap{Epoch: 1}); !errors.Is(err, ErrNeedSync) {
		t.Errorf("carry from an empty handle: %v, want need-sync", err)
	}
}
