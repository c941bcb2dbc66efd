// Package lec implements the paper's central contribution: local partial
// match equivalence classes (Definitions 6-7), their compact LEC features
// (Definition 8, Algorithm 1), LECSign groups and the join graph
// (Definition 10), and the LEC-feature-based pruning of irrelevant partial
// matches (Definition 9, Theorem 4, Algorithm 2). The join closure that
// pruning walks over features is the one package assembly walks over
// partial matches: Closure.
package lec

import (
	"gstored/internal/key"
	"gstored/internal/partial"
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
	return string(partial.AppendCrossing(key.Int(buf[:0], f.Frag), f.Mappings))
}

// EstimateBytes approximates the wire size of the feature for data-shipment
// accounting: fragment id + 16 bytes per mapping + the LECSign bitstring
// (Section IV-D: O(|E_Q| + |V_Q|) per feature).
func (f *Feature) EstimateBytes(numQueryVertices int) int {
	return 4 + 16*len(f.Mappings) + (numQueryVertices+7)/8
}

// Compute runs Algorithm 1: a linear scan grouping partial matches into
// equivalence classes keyed by (fragment, g). Features are returned in
// first-seen order; FeatureOf[i] gives the feature index of pms[i].
func Compute(pms []*partial.Match) (features []*Feature, featureOf []int) {
	index := make(map[string]int)
	featureOf = make([]int, len(pms))
	for i, pm := range pms {
		f := &Feature{Frag: pm.Frag, Mappings: pm.Crossing, Sign: pm.Sign}
		fk := f.Key()
		fi, ok := index[fk]
		if !ok {
			fi = len(features)
			index[fk] = fi
			features = append(features, f)
		}
		features[fi].PMs = append(features[fi].PMs, i)
		featureOf[i] = fi
	}
	return features, featureOf
}

// PruneResult reports the outcome of Prune.
type PruneResult struct {
	// Retained[i] is true when features[i] can contribute to a complete
	// match (the set RS of Algorithm 2, provenance-precise).
	Retained []bool
	// States counts the join states explored.
	States int
	// Overflowed reports that the state cap was hit.
	Overflowed bool
}

// maxPruneStates caps the feature-join state space.
const maxPruneStates = 1 << 20

// Prune implements Algorithm 2 as the Closure over features: when a
// combination's signs union to all-ones (Theorem 4), its members are
// retained. Partial matches whose features are not retained can be
// discarded before shipment (Theorem 3/4 guarantee no final match is
// lost). The first cancel hook, if any, is polled by the walk; a walk
// that does not finish — canceled, or past maxPruneStates — proves
// nothing, so every feature is retained (safe, just not effective).
func Prune(features []*Feature, q *query.Graph, cancel ...func() bool) PruneResult {
	res := PruneResult{Retained: make([]bool, len(features))}
	c := Closure[struct{}]{
		Q: q, Items: make([]Item, len(features)), MaxStates: maxPruneStates,
		Complete: func(members []int, _ struct{}) bool {
			for _, m := range members {
				res.Retained[m] = true
			}
			return true
		},
	}
	for i, f := range features {
		c.Items[i] = Item{Sign: f.Sign, Mappings: f.Mappings}
	}
	if len(cancel) > 0 {
		c.Cancel = cancel[0]
	}
	if !c.Run() {
		for i := range res.Retained {
			res.Retained[i] = true
		}
	}
	res.States, res.Overflowed = c.States, c.Overflowed
	return res
}
