package engine

import (
	"context"
	"net"
	"testing"

	"gstored/internal/cluster"
	"gstored/internal/query"
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
// shape, plain and with a projection, DISTINCT, OFFSET and LIMIT (which
// stay at the coordinator: a site receives only the pattern), ordered
// results through two remote workers must be byte-identical to the
// in-process engine's. The streaming path must deliver the same row
// multiset; under OFFSET and LIMIT, where a stream may keep any window,
// as many rows as the ordered answer, with no duplicate, all from the
// unwindowed answer. This is the acceptance bar for the coordinator↔site
// boundary: the engine cannot tell which implementation it is scattering
// to.
func TestRemoteSiteEquivalence(t *testing.T) {
	env := newEquivEnv(t)
	remoteEng := newRemoteEngine(t, env)
	distinctX := func(b *query.Builder) *query.Builder { return b.Select("x").Distinct() }
	windowed := func(b *query.Builder) *query.Builder { return distinctX(b).Offset(1).Limit(5) }

	for _, shape := range []string{"star", "path", "cross", "disconnected"} {
		t.Run(shape, func(t *testing.T) {
			for _, mod := range []func(*query.Builder) *query.Builder{nil, windowed} {
				q := env.shape(t, shape, mod)
				want, _ := orderedRows(t, env.eng, q, Full, 4)
				got, _ := orderedRows(t, remoteEng, q, Full, 4)
				if len(want) == 0 {
					t.Fatalf("shape %s has no matches; fixture too sparse", shape)
				}
				if !sameRows(got, want) {
					t.Fatalf("ordered rows diverge (modified %v): remote has %d rows, local %d", mod != nil, len(got), len(want))
				}
				streamed := streamedRows(t, remoteEng, q, Full, 4)
				if mod == nil {
					if !sameMultiset(streamed, want) {
						t.Error("streamed multiset diverged from ordered oracle")
					}
					continue
				}
				answer, _ := orderedRows(t, env.eng, env.shape(t, shape, distinctX), Full, 4)
				if len(streamed) != len(want) || hasDuplicates(streamed) || !subMultiset(streamed, answer) {
					t.Errorf("modified: streamed %d rows (duplicates %v), want %d distinct rows of the %d-row answer",
						len(streamed), hasDuplicates(streamed), len(want), len(answer))
				}
			}
		})
	}
}

// TestRemoteWireAccounting checks that wired executions report real
// transport bytes instead of the §IX estimates — for a star, for a query
// with a candidates stage and for a disconnected one whose components add
// into one ledger: total shipment equals the measured wire traffic, every
// fragment's shipment is its wire counter, and the stage rows add up to
// the total on both transports, the partial stage's socket bytes
// included.
func TestRemoteWireAccounting(t *testing.T) {
	env := newEquivEnv(t)
	remoteEng := newRemoteEngine(t, env)
	for _, shape := range []string{"path", "tree", "disconnected"} {
		q := env.shape(t, shape, nil)
		res, err := remoteEng.ExecuteContext(context.Background(), q, Config{Mode: Full, EvalWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		s := res.Stats
		if s.TotalShipment <= 0 {
			t.Errorf("%s: wired shipment = %d, want measured bytes", shape, s.TotalShipment)
		}
		if s.Stages[StageLEC].Shipment != 0 {
			t.Errorf("%s: wired LEC shipment = %d, want 0 (coordinator-side pruning ships nothing)", shape, s.Stages[StageLEC].Shipment)
		}
		if s.Stages[StagePartial].Shipment <= 0 {
			t.Errorf("%s: wired partial stage shipment = %d, want its calls' socket bytes", shape, s.Stages[StagePartial].Shipment)
		}
		if sum := shipmentSum(&s); sum != s.TotalShipment {
			t.Errorf("%s: wired init + stage shipments = %d, total = %d", shape, sum, s.TotalShipment)
		}
		var wire int64
		for _, fs := range s.Fragments {
			wire += fs.WireBytes
			if fs.ShipmentBytes != fs.WireBytes {
				t.Errorf("%s: site %d: shipment %d != measured wire %d", shape, fs.Site, fs.ShipmentBytes, fs.WireBytes)
			}
		}
		if wire <= 0 || wire != s.TotalShipment {
			t.Errorf("%s: per-fragment wire bytes sum to %d, total shipment %d; want equal and > 0", shape, wire, s.TotalShipment)
		}

		local, err := env.eng.ExecuteContext(context.Background(), q, Config{Mode: Full, EvalWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		if sum := shipmentSum(&local.Stats); sum != local.Stats.TotalShipment {
			t.Errorf("%s: in-process init + stage shipments = %d, total = %d", shape, sum, local.Stats.TotalShipment)
		}
		for _, fs := range local.Stats.Fragments {
			if fs.WireBytes != 0 {
				t.Errorf("%s: in-process fragment reports %d wire bytes", shape, fs.WireBytes)
			}
		}
	}
}
