package engine

import (
	"context"
	"net"
	"testing"

	"gstored/internal/cluster"
	"gstored/internal/remote"
)

// newRemoteEngine deploys the fixture's fragments onto two worker
// processes (in-process goroutines, real TCP on loopback) and returns an
// engine whose sites are all RPC-backed. Teardown rides the test.
func newRemoteEngine(t *testing.T, env *equivEnv) *Engine {
	t.Helper()
	var addrs []string
	for i := 0; i < 2; i++ {
		w := remote.NewWorker(0)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := w.Serve(ln); err != nil {
				t.Errorf("worker serve: %v", err)
			}
		}()
		t.Cleanup(func() {
			if err := w.Close(); err != nil {
				t.Errorf("worker close: %v", err)
			}
			<-done
		})
		addrs = append(addrs, ln.Addr().String())
	}
	coord, err := remote.Connect(addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := coord.Close(); err != nil {
			t.Errorf("coordinator close: %v", err)
		}
	})

	// The initial ship is epoch 1's install with every fragment touched,
	// exactly as DB.Open drives it.
	ctx := context.Background()
	sites := make([]cluster.Site, len(env.dist.Fragments))
	for i, f := range env.dist.Fragments {
		s, err := coord.NewSite(i).SwapGeneration(ctx, cluster.GenerationSwap{Epoch: 1, Fragment: f})
		if err != nil {
			t.Fatalf("install site %d: %v", i, err)
		}
		sites[i] = s
	}
	return NewWithSites(env.dist, sites)
}

// TestRemoteSiteEquivalence pins the RPC transport against the
// in-process oracle on the full engine path: for every structural query
// shape, ordered results through two remote workers must be
// byte-identical to the in-process engine's, and the streaming path must
// deliver the same row multiset. This is the acceptance bar for the
// coordinator↔site boundary: the engine cannot tell which implementation
// it is scattering to.
func TestRemoteSiteEquivalence(t *testing.T) {
	env := newEquivEnv(t)
	remoteEng := newRemoteEngine(t, env)

	for _, shape := range []string{"star", "path", "cross", "disconnected"} {
		t.Run(shape, func(t *testing.T) {
			q := env.shape(t, shape, nil)
			want, _ := orderedKeys(t, env.eng, q, Full, 4)
			got, _ := orderedKeys(t, remoteEng, q, Full, 4)
			if len(want) == 0 {
				t.Fatalf("shape %s has no matches; fixture too sparse", shape)
			}
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("ordered rows diverge at %d: remote has %d rows, local %d", i, len(got), len(want))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("remote returned %d rows, local %d", len(got), len(want))
			}
			if !sameMultiset(streamedKeys(t, remoteEng, q, Full, 4), want) {
				t.Error("streamed multiset diverged from ordered oracle")
			}
		})
	}
}

// TestRemoteWireAccounting checks that wired executions report real
// transport bytes instead of the §IX estimates: total shipment equals
// the measured wire traffic, and the per-fragment wire counters are
// populated.
func TestRemoteWireAccounting(t *testing.T) {
	env := newEquivEnv(t)
	remoteEng := newRemoteEngine(t, env)
	q := env.shape(t, "path", nil)

	res, err := remoteEng.Execute(q, Config{Mode: Full, EvalWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalShipment <= 0 {
		t.Errorf("wired shipment = %d, want measured bytes", res.Stats.TotalShipment)
	}
	if res.Stats.LECShipment != 0 {
		t.Errorf("wired LEC shipment = %d, want 0 (coordinator-side pruning ships nothing)", res.Stats.LECShipment)
	}
	var wire int64
	for _, fs := range res.Stats.Fragments {
		wire += fs.WireBytes
	}
	if wire <= 0 || wire != res.Stats.TotalShipment {
		t.Errorf("per-fragment wire bytes sum to %d, total shipment %d; want equal and > 0", wire, res.Stats.TotalShipment)
	}
	for _, fs := range res.Stats.Fragments {
		if fs.ShipmentBytes != fs.WireBytes {
			t.Errorf("site %d: shipment %d != measured wire %d", fs.Site, fs.ShipmentBytes, fs.WireBytes)
		}
	}

	local, err := env.eng.Execute(q, Config{Mode: Full, EvalWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range local.Stats.Fragments {
		if fs.WireBytes != 0 {
			t.Errorf("in-process fragment reports %d wire bytes", fs.WireBytes)
		}
	}
}
