// Package lec implements the paper's central contribution: local partial
// match equivalence classes (Definitions 6-7), their compact LEC features
// (Definition 8, Algorithm 1), and the one join closure over them
// (Definition 9, Theorem 4): Walk grows every sign-disjoint,
// mapping-consistent combination of features once, which yields both
// Algorithm 2's pruning verdict and the complete combinations that
// package assembly expands into crossing matches. Closure is that
// search, in every mode: the Basic join of [18] is the same walk over one
// singleton feature per partial match, with every pair proposed.
package lec

import (
	"gstored/internal/key"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
)

// Feature is a LEC feature LF([PM]) = {F, g, LECSign}: the fragment
// identifier, the mapping from crossing edges to query edges, and the
// bitstring marking internally matched query vertices.
type Feature struct {
	Frag int
	// Mappings is the function g, sorted like partial.Match.Crossing.
	Mappings []partial.CrossEdge
	Sign     uint64
	// PMs indexes the partial matches belonging to this equivalence class
	// (positions into the slice passed to Compute).
	PMs []int
}

// Key canonically identifies the feature (fragment + g; the sign is
// implied, Theorem 1).
func (f *Feature) Key() string {
	var buf [128]byte
	return string(appendKey(buf[:0], f.Frag, f.Mappings))
}

func appendKey(b []byte, frag int, g []partial.CrossEdge) []byte {
	return partial.AppendCrossing(key.Int(b, frag), g)
}

// EstimateBytes approximates the wire size of the feature for data-shipment
// accounting: fragment id + 16 bytes per mapping + the LECSign bitstring
// (Section IV-D: O(|E_Q| + |V_Q|) per feature).
func (f *Feature) EstimateBytes(numQueryVertices int) int {
	return 4 + 16*len(f.Mappings) + (numQueryVertices+7)/8
}

// Compute runs Algorithm 1: a linear scan grouping partial matches into
// equivalence classes keyed by (fragment, g). Features are returned in
// first-seen order; FeatureOf[i] gives the feature index of pms[i]. Only
// a first-seen class allocates (its Feature and its key).
func Compute(pms []*partial.Match) (features []*Feature, featureOf []int) {
	index := make(map[string]int)
	featureOf = make([]int, len(pms))
	var buf [128]byte
	for i, pm := range pms {
		fk := appendKey(buf[:0], pm.Frag, pm.Crossing)
		fi, ok := index[string(fk)] // lookup by converted bytes does not allocate
		if !ok {
			fi = len(features)
			index[string(fk)] = fi
			features = append(features, &Feature{Frag: pm.Frag, Mappings: pm.Crossing, Sign: pm.Sign})
		}
		features[fi].PMs = append(features[fi].PMs, i)
		featureOf[i] = fi
	}
	return features, featureOf
}

// Combos is a list of feature-index sets, each ascending, stored back to
// back.
type Combos struct {
	members []int
	ends    []int
}

// Len reports the number of sets.
func (c *Combos) Len() int { return len(c.ends) }

// At returns set k; the slice aliases the list.
func (c *Combos) At(k int) []int {
	lo := 0
	if k > 0 {
		lo = c.ends[k-1]
	}
	return c.members[lo:c.ends[k]]
}

// PruneResult reports the outcome of a feature walk.
type PruneResult struct {
	// Retained[i] is true when features[i] can contribute to a complete
	// match (the set RS of Algorithm 2, provenance-precise).
	Retained []bool
	// Combos are the complete combinations themselves — every set of
	// features whose LECSigns cover the query — in discovery order. They
	// are what assembly expands into crossing matches; empty unless
	// Finished.
	Combos Combos
	// Finished reports that the walk ran to its end. One that was
	// canceled proves nothing: everything is retained and no combination
	// is reported.
	Finished bool
	// Attempts counts the join steps tried, States the join states
	// explored.
	Attempts, States int
}

// Prune implements Algorithm 2 as the Closure over features: when a
// combination's signs union to all-ones (Theorem 4), its members are
// retained. Partial matches whose features are not retained can be
// discarded before shipment (Theorem 3/4 guarantee no final match is
// lost). Prune is the sequential, uncancellable Walk.
func Prune(features []*Feature, q *query.Graph) PruneResult {
	return Walk(features, q, false, nil, nil)
}

// Walk is the one feature-level walk of every mode: Algorithm 2's pruning
// verdict and the complete combinations assembly expands come out of the
// same Closure run. allPairs proposes every pair instead of asking the
// crossing-edge index (Closure.AllPairs: the Basic join); root chunks fan
// out on p (nil walks inline); cancel, when non-nil, is polled by the
// walk. A canceled walk retains every feature (safe, just not effective)
// and reports no combination.
func Walk(features []*Feature, q *query.Graph, allPairs bool, p *pool.Pool, cancel func() bool) PruneResult {
	res := PruneResult{Retained: make([]bool, len(features))}
	c := Closure{
		Q: q, Items: make([]Item, len(features)), AllPairs: allPairs, Cancel: cancel, Pool: p,
		Complete: func(members []int) bool {
			for _, m := range members {
				res.Retained[m] = true
			}
			res.Combos.members = append(res.Combos.members, members...)
			res.Combos.ends = append(res.Combos.ends, len(res.Combos.members))
			return true
		},
	}
	for i, f := range features {
		c.Items[i] = Item{Sign: f.Sign, Mappings: f.Mappings}
	}
	if res.Finished = c.Run(); !res.Finished {
		for i := range res.Retained {
			res.Retained[i] = true
		}
		res.Combos = Combos{}
	}
	res.Attempts, res.States = c.Attempts, c.States
	return res
}
