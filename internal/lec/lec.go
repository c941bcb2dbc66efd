// Package lec implements the paper's central contribution: local partial
// match equivalence classes (Definitions 6-7), their compact LEC features
// (Definition 8, Algorithm 1), LECSign groups and the join graph
// (Definition 10), and the LEC-feature-based pruning of irrelevant partial
// matches (Definition 9, Theorem 4, Algorithm 2).
package lec

import (
	"sort"

	"gstored/internal/key"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
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

// Joinable implements Definition 9 on two original (un-joined) features:
// different fragments, at least one shared crossing-edge mapping, no query
// edge mapped to two different crossing edges, and disjoint LECSigns.
func Joinable(a, b *Feature) bool {
	if a.Frag == b.Frag {
		return false
	}
	if a.Sign&b.Sign != 0 {
		return false
	}
	shared := false
	for _, ma := range a.Mappings {
		for _, mb := range b.Mappings {
			if ma.QEdge != mb.QEdge {
				continue
			}
			if ma == mb {
				shared = true
			} else {
				return false // same query edge, different crossing edge
			}
		}
	}
	return shared
}

// PruneResult reports the outcome of Prune.
type PruneResult struct {
	// Retained[i] is true when features[i] can contribute to a complete
	// match (the set RS of Algorithm 2, provenance-precise).
	Retained []bool
	// States counts the join states explored.
	States int
	// Overflowed reports that the state cap was hit and pruning degraded
	// to retaining everything (safe, just not effective).
	Overflowed bool
}

// maxPruneStates caps the feature-join state space; beyond it Prune keeps
// every feature (conservative).
const maxPruneStates = 1 << 20

// Prune implements Algorithm 2 as a canonical-root closure over the
// feature join space: every connected, sign-disjoint, mapping-consistent
// combination of features is grown from its minimum-index member; when a
// combination's signs union to all-ones (Theorem 4), its members are
// retained. Partial matches whose features are not retained can be
// discarded before shipment (Theorem 3/4 guarantee no final match is
// lost).
//
// Beyond Definition 9 the closure also checks crossing-edge *endpoint*
// consistency (two mappings binding one query vertex to different data
// vertices cannot coexist in a match) — strictly better pruning that
// remains safe, see DESIGN.md fidelity note 1.
func Prune(features []*Feature, q *query.Graph) PruneResult {
	res := PruneResult{Retained: make([]bool, len(features))}
	if len(features) == 0 {
		return res
	}
	full := fullSign(len(q.Vertices))
	var kbuf [128]byte // member-set key scratch

	// Index: mapping -> features containing it, for connected expansion.
	byMapping := make(map[partial.CrossEdge][]int)
	for i, f := range features {
		for _, m := range f.Mappings {
			byMapping[m] = append(byMapping[m], i)
		}
	}

	newState := func(fi int) (*joinState, bool) {
		s := &joinState{
			sign:    features[fi].Sign,
			members: []int{fi},
			vbind:   make([]rdf.TermID, len(q.Vertices)),
			qmap:    make([]partial.CrossEdge, len(q.Edges)),
		}
		for _, m := range features[fi].Mappings {
			if !applyMapping(s.vbind, s.qmap, q, m) {
				return nil, false
			}
		}
		return s, true
	}

	for root := 0; root < len(features); root++ {
		if res.Overflowed {
			break
		}
		if features[root].Sign == full {
			// A single feature can never be complete (it has a crossing
			// edge, hence an extended endpoint vertex), but guard anyway.
			res.Retained[root] = true
			continue
		}
		init, ok := newState(root)
		if !ok {
			continue
		}
		frontier := []*joinState{init}
		seen := map[string]bool{string(key.Ints(kbuf[:0], init.members)): true}
		for len(frontier) > 0 && !res.Overflowed {
			s := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, cand := range expandCandidates(s.members, s.qmap, q, byMapping, root) {
				ns, ok := tryExtend(s, features[cand], cand, q)
				if !ok {
					continue
				}
				mk := key.Ints(kbuf[:0], ns.members)
				if seen[string(mk)] { // lookup by converted bytes does not allocate
					continue
				}
				seen[string(mk)] = true
				res.States++
				if res.States > maxPruneStates {
					res.Overflowed = true
					break
				}
				if ns.sign == full {
					for _, m := range ns.members {
						res.Retained[m] = true
					}
					// A complete combination can still grow? No: any
					// further feature overlaps the full sign. Stop here.
					continue
				}
				frontier = append(frontier, ns)
			}
		}
	}
	if res.Overflowed {
		for i := range res.Retained {
			res.Retained[i] = true
		}
	}
	return res
}

func fullSign(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}

// applyMapping folds one crossing-edge mapping into the per-vertex and
// per-edge binding tables, reporting consistency.
func applyMapping(vbind []rdf.TermID, qmap []partial.CrossEdge, q *query.Graph, m partial.CrossEdge) bool {
	e := q.Edges[m.QEdge]
	if cur := qmap[m.QEdge]; cur.S != rdf.NoTerm {
		if cur != m {
			return false // Definition 9 condition 3
		}
		return true
	}
	if b := vbind[e.From]; b != rdf.NoTerm && b != m.S {
		return false
	}
	if b := vbind[e.To]; b != rdf.NoTerm && b != m.O {
		return false
	}
	qmap[m.QEdge] = m
	vbind[e.From] = m.S
	vbind[e.To] = m.O
	return true
}

// expandCandidates lists features sharing at least one crossing-edge
// mapping with the state (connected growth), with index > root
// (canonical-root enumeration) and not already members.
func expandCandidates(members []int, qmap []partial.CrossEdge, q *query.Graph, byMapping map[partial.CrossEdge][]int, root int) []int {
	in := make(map[int]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	var out []int
	seen := map[int]bool{}
	for qe := range qmap {
		if qmap[qe].S == rdf.NoTerm {
			continue
		}
		for _, fi := range byMapping[qmap[qe]] {
			if fi <= root || in[fi] || seen[fi] {
				continue
			}
			seen[fi] = true
			out = append(out, fi)
		}
	}
	sort.Ints(out)
	return out
}

// joinState is one node of the feature-join search: the union sign, the
// sorted member feature indices, crossing-edge endpoint bindings per query
// vertex (vbind) and the crossing edge chosen per query edge (qmap, with
// S == rdf.NoTerm meaning unset).
type joinState struct {
	sign    uint64
	members []int
	vbind   []rdf.TermID
	qmap    []partial.CrossEdge
}

// tryExtend joins feature f (index fi) into state s, returning the new
// state, or false when Definition 9 / Theorem 4 conditions fail.
func tryExtend(s *joinState, f *Feature, fi int, q *query.Graph) (*joinState, bool) {
	if s.sign&f.Sign != 0 {
		return nil, false // Theorem 4 condition 2
	}
	ns := &joinState{
		sign:    s.sign | f.Sign,
		members: append(append([]int(nil), s.members...), fi),
		vbind:   append([]rdf.TermID(nil), s.vbind...),
		qmap:    append([]partial.CrossEdge(nil), s.qmap...),
	}
	sort.Ints(ns.members)
	for _, m := range f.Mappings {
		if !applyMapping(ns.vbind, ns.qmap, q, m) {
			return nil, false
		}
	}
	return ns, true
}
