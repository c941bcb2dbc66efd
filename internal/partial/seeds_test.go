package partial

import (
	"math/bits"
	"slices"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/runs"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// buildWith partitions st with strat into k fragments and builds them.
func buildWith(st *store.Store, strat partition.Strategy, k int) (*fragment.Distributed, error) {
	a, err := strat.Partition(st, k)
	if err != nil {
		return nil, err
	}
	return fragment.Build(st, a)
}

// pairsTried counts the (crossing edge, query edge) pairs run seeds from
// the domain (edges, masks): second instances of an edge seed nothing.
func pairsTried(edges []rdf.Triple, masks []uint64, q *query.Graph) int {
	n := 0
	for i, t := range edges {
		switch {
		case i > 0 && t == edges[i-1]:
		case masks == nil:
			n += len(q.Edges)
		default:
			n += bits.OnesCount64(masks[i])
		}
	}
	return n
}

// matchesFrom is Compute's match sequence over the seed domain (edges,
// masks).
func matchesFrom(t *testing.T, f *fragment.Fragment, q *query.Graph, edges []rdf.Triple, masks []uint64, width int) []*Match {
	t.Helper()
	s, err := enumerate(f, q, runs.Of(edges), masks, Options{Pool: pool.New(width)})
	if err != nil {
		t.Fatal(err)
	}
	return s.Matches()
}

// TestCandidateDomain pins which seed domain partial evaluation takes on
// LUBM(3) under hash partitioning over four sites, and what it saves:
// LQ3 and LQ6 — every variable joins a constant — seed from the crossing
// edges at their local candidates, trying at most a tenth of the 5,646
// (crossing edge, query edge) pairs the scan of every crossing edge
// tries; LQ1 and LQ7 have unanchored variables and scan. On every query
// both domains return the same match sequence, at widths 1 and 8.
func TestCandidateDomain(t *testing.T) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 3, Seed: 7})
	d, err := buildWith(store.FromGraph(ds.Graph), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	const scanPairs = 5646
	for _, c := range []struct {
		name  string
		pairs int // tried by the candidate domain when the query takes it, else 0
	}{{"LQ1", 0}, {"LQ3", 33}, {"LQ6", 94}, {"LQ7", 0}} {
		bq, err := ds.Query(c.name)
		if err != nil {
			t.Fatal(err)
		}
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			t.Fatal(err)
		}
		scanned, tried, matches := 0, 0, 0
		for _, f := range d.Fragments {
			if _, masks := seedDomain(f, q); (masks != nil) != (c.pairs > 0) {
				t.Errorf("%s F%d: candidate domain taken = %v", c.name, f.ID, masks != nil)
			}
			edges, masks := candidateSeeds(f, q)
			scanned += pairsTried(f.Crossing.Flat(), nil, q)
			tried += pairsTried(edges, masks, q)
			for _, width := range []int{1, 8} {
				want := matchesFrom(t, f, q, f.Crossing.Flat(), nil, width)
				if got := matchesFrom(t, f, q, edges, masks, width); !slices.EqualFunc(got, want, sameMatch) {
					t.Errorf("%s F%d width %d: the candidate domain returns %d matches, the scan %d, or another order", c.name, f.ID, width, len(got), len(want))
				}
				matches += len(want)
			}
		}
		if matches == 0 {
			t.Errorf("%s: no partial match: the case was not exercised", c.name)
		}
		if scanned != scanPairs {
			t.Errorf("%s: the scan tries %d pairs, want %d", c.name, scanned, scanPairs)
		}
		if c.pairs > 0 && tried != c.pairs {
			t.Errorf("%s: the candidate domain tries %d pairs, want %d (the scan: %d)", c.name, tried, c.pairs, scanned)
		}
	}
}
