// Package lec implements the paper's central contribution: local partial
// match equivalence classes (Definitions 6-7), their compact LEC features
// (Definition 8, Algorithm 1), and the one join closure over them
// (Definition 9, Theorem 4): Walk grows every sign-disjoint,
// mapping-consistent combination of features once, which yields
// Algorithm 2's pruning verdict and hands each complete combination, as
// it completes it, to a caller's Sink — the expansion package assembly
// builds. Walk is that search in every mode and at every pool width: the
// Basic join of [18] is the same walk over one singleton feature per
// partial match, with every pair proposed, and a one-wide pool runs the
// same chunk loop with one chunk.
package lec

import (
	"slices"
	"sync/atomic"

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

	// ids are Mappings interned in tab, the table of the Compute call
	// that built the feature (or of the walk that interned it).
	ids []int32
	tab *table
}

// table is one query's interned crossing-edge mappings: each distinct
// mapping gets a dense id, in order of first sight, and edges[id] keeps
// what the join step reads of it.
type table struct {
	set   key.Set[uint32] // (QEdge, S, P, O) per id
	edges []mapping
}

// intern appends the ids of g's mappings to ids: the one place a mapping
// gets its id, for Compute's features and hand-built ones alike.
func (t *table) intern(ids []int32, g []partial.CrossEdge) []int32 {
	for _, m := range g {
		id, added := t.set.Add([]uint32{uint32(m.QEdge), uint32(m.S), uint32(m.P), uint32(m.O)})
		if added {
			t.edges = append(t.edges, mapping{int32(m.QEdge), m.S, m.O})
		}
		ids = append(ids, int32(id))
	}
	return ids
}

// Compute runs Algorithm 1: a linear scan grouping partial matches into
// equivalence classes by the id tuple (fragment, interned g). Features
// are returned in first-seen order; FeatureOf[i] gives the feature index
// of pms[i]. Features and their PMs are carved from a few slabs.
func Compute(pms []*partial.Match) (features []*Feature, featureOf []int) {
	words := 0
	for _, pm := range pms {
		words += len(pm.Crossing)
	}
	// Room for every mapping distinct and every match its own feature.
	tab := &table{edges: make([]mapping, 0, words)}
	tab.set.Reserve(words, 4*words)
	var tuples key.Set[int32] // feature fi is tuple fi
	tuples.Reserve(len(pms), len(pms)+words)
	featureOf = make([]int, len(pms))
	var tup []int32
	for i, pm := range pms {
		tup = tab.intern(append(tup[:0], int32(pm.Frag)), pm.Crossing)
		featureOf[i], _ = tuples.Add(tup)
	}
	// PMs are sub-slices of one permutation of the matches, grouped by
	// feature and ascending within each: count, prefix-sum, place.
	ends := make([]int, tuples.Len()+1)
	for _, fi := range featureOf {
		ends[fi+1]++
	}
	for fi := 1; fi < len(ends); fi++ {
		ends[fi] += ends[fi-1]
	}
	perm := make([]int, len(pms))
	for i, fi := range featureOf {
		perm[ends[fi]] = i
		ends[fi]++
	}
	slab := make([]Feature, tuples.Len())
	features = make([]*Feature, len(slab))
	lo := 0
	for fi := range slab {
		pm := pms[perm[lo]]
		slab[fi] = Feature{Frag: pm.Frag, Mappings: pm.Crossing, Sign: pm.Sign,
			PMs: perm[lo:ends[fi]:ends[fi]], ids: tuples.At(fi)[1:], tab: tab}
		features[fi], lo = &slab[fi], ends[fi]
	}
	return features, featureOf
}

// Sink receives the members of each complete combination, ascending, as
// the walk completes it — every set of features whose LECSigns cover the
// query, each once. The slice is valid only during the call. Returning
// false ends the walk early, as a cancellation does.
type Sink func(members []int) bool

// PruneResult reports the outcome of a feature walk.
type PruneResult struct {
	// Retained[i] is true when features[i] can contribute to a complete
	// match (the set RS of Algorithm 2, provenance-precise).
	Retained []bool
	// Finished reports that the walk ran to its end. One that was
	// canceled or stopped by its sink proves nothing: everything is
	// retained.
	Finished bool
	// Semijoin is the index walk's one-round semijoin (zero for an
	// all-pairs walk).
	Semijoin
	// Attempts counts the join steps tried, States the states explored.
	Attempts, States int
}

// Semijoin is one round of semijoin reduction over the features'
// crossing-edge mappings, in full and on its sample: the 1 in sampleRate
// mappings a fixed hash of the mapping selects. A mapping is dead when no
// feature holds it from the other side. Per-feature slices index the
// walked features, per-fragment ones the fragment IDs.
type Semijoin struct {
	// Live[i] reports that feature i holds no dead mapping; the walk never
	// roots or proposes a dead feature.
	Live []bool
	// SampleDead[i] reports that feature i holds a dead sampled mapping:
	// the sample's verdict, a subset of the dead features.
	SampleDead []bool
	// Unsampled[i] counts feature i's mappings outside the sample.
	Unsampled []int32
	// Mappings[f] counts fragment f's distinct mappings, what its site
	// reports to the full semijoin; Sampled[f] counts those in the
	// sample, and SampledDead[f] those of them that are dead.
	Mappings, Sampled, SampledDead []int
}

// Prune implements Algorithm 2 as the closure over features: the members
// of every combination whose signs union to all-ones (Theorem 4) are
// retained, and no final match needs another (Theorems 3/4). Prune is
// the sequential, uncancellable Walk with no sink.
func Prune(features []*Feature, q *query.Graph) PruneResult {
	return Walk(features, q, false, nil, nil, nil)
}

// Walk is the one feature-level walk of every mode: Algorithm 2's pruning
// verdict and the complete combinations assembly expands come out of the
// same closure. allPairs proposes every pair instead of asking the
// crossing-edge index (the Basic join); cancel, when non-nil, is polled
// by every chunk. Roots are cut by p.Split — one chunk on a nil or
// one-wide pool — and a combination belongs to its minimum-index member,
// so chunks share nothing but the read-only index. A non-nil sink is
// called once per chunk, in chunk order before any runs, and the chunk
// hands every combination it completes to that Sink; the chunks' marks
// and counters are merged after the walk. Features not all from one
// Compute call — Basic's singletons, a test's — are interned by the walk,
// in place.
func Walk(features []*Feature, q *query.Graph, allPairs bool, p *pool.Pool, cancel func() bool, sink func() Sink) PruneResult {
	walks.Add(1)
	c := &closure{q: q, features: features, allPairs: allPairs, cancel: cancel}
	c.buildIndex()
	var stop atomic.Bool
	chunks := p.Split(len(features))
	ws := make([]*walker, len(chunks))
	for k := range ws {
		ws[k] = &walker{c: c, full: fullSign(len(q.Vertices)), stop: &stop, retained: make([]bool, len(features))}
		if sink != nil {
			ws[k].sink = sink()
		}
	}
	p.Run(chunks, nil, func(k, lo, hi int) {
		if !ws[k].run(lo, hi) {
			stop.Store(true)
		}
	})
	res := PruneResult{Retained: make([]bool, len(features)), Finished: !stop.Load(), Semijoin: c.sj}
	for _, w := range ws {
		res.Attempts += w.attempts
		res.States += w.states
	}
	for i := range res.Retained {
		res.Retained[i] = !res.Finished || slices.ContainsFunc(ws, func(w *walker) bool { return w.retained[i] })
	}
	return res
}
