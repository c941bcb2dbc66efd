// Package lec implements the paper's central contribution: local partial
// match equivalence classes (Definitions 6-7), their compact LEC features
// (Definition 8, Algorithm 1), and the one join closure over them
// (Definition 9, Theorem 4): Walk grows every sign-disjoint,
// mapping-consistent combination of features once, which yields
// Algorithm 2's pruning verdict and hands each complete combination, as
// it completes it, to a caller's Sink — the expansion package assembly
// builds. Walk is that search in every mode and at every pool width: the
// Basic join of [18] is the same walk over one singleton feature per
// partial match (Singletons), with every pair proposed, and a one-wide
// pool runs the same chunk loop with one chunk.
package lec

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"gstored/internal/key"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Features is one query's LEC features LF([PM]) = {F, g, LECSign}
// (Definition 8) as columns over one table of interned crossing-edge
// mappings: feature i has the fragment Set(i) (the index of the set its
// matches are in: Group takes one set per fragment), the sign Sign[i],
// the mapping ids of g in query-edge order, and the partial matches of
// its equivalence class, PMs(i). Group builds them by Algorithm 1 and
// Singletons one per partial match; the walk and the expansion read
// them by index.
type Features struct {
	// Sign[i] is feature i's LECSign.
	Sign []uint64
	// FeatureOf[j] is the feature of partial match j, the j-th of the
	// sets' matches end to end.
	FeatureOf []int32
	// Crossing counts the matches' crossing edges, duplicates included:
	// the table holds a (query edge, S, P, O) record of room for each.
	Crossing int

	// tuples holds feature i at id i: its set, then its mapping ids.
	tuples key.List[int32]
	// pms lists each feature's partial matches, ascending, the features
	// in order: feature i's are pms[pmOff[i]:pmOff[i+1]].
	pmOff, pms []int32
	tab        table
}

// Len reports the number of features.
func (fs *Features) Len() int { return len(fs.Sign) }

// Set returns the index of the set feature i's partial matches are in.
func (fs *Features) Set(i int) int { return int(fs.tuples.At(i)[0]) }

// PMs returns feature i's partial matches as indices into set Set(i),
// ascending; the slice aliases fs.
func (fs *Features) PMs(i int) []int32 { return fs.pms[fs.pmOff[i]:fs.pmOff[i+1]] }

// ids returns feature i's mapping ids, in query-edge order.
func (fs *Features) ids(i int) []int32 { return fs.tuples.At(i)[1:] }

// table is one query's interned crossing-edge mappings: each distinct
// (query edge, S, P, O) gets a dense id, in order of first sight, and
// edges[id] is it. slots is a linear-probing table at most half full: 0
// is empty, else an id+1.
type table struct {
	edges []mapping
	slots []uint32
	cross []partial.CrossEdge // scratch: the crossing edges being interned
}

// mapping is an interned crossing-edge mapping: its query edge and the
// crossing edge's triple.
type mapping struct {
	qedge   int32
	s, p, o rdf.TermID
}

// hash mixes all four fields with splitmix64's finalizer.
func (m mapping) hash() uint32 {
	return uint32(mix64(mix64(uint64(uint32(m.qedge))<<32|uint64(m.s)) ^ (uint64(m.p)<<32 | uint64(m.o))))
}

// intern appends to ids the ids of the mappings of the match of vector
// vec, edge-label bindings edgeVars and sign sign, derived by the rule
// (partial.AppendCrossing): the one place a mapping gets its id, a new
// one the next. build sizes the slots for every crossing edge a distinct
// mapping, so they never fill past half.
func (t *table) intern(ids []int32, q *query.Graph, vec, edgeVars []rdf.TermID, sign uint64) []int32 {
	t.cross = partial.AppendCrossing(t.cross[:0], q, vec, edgeVars, sign)
	mask := uint32(len(t.slots) - 1)
	for _, c := range t.cross {
		m := mapping{int32(c.QEdge), c.S, c.P, c.O}
		i := m.hash() & mask
		for t.slots[i] != 0 && t.edges[t.slots[i]-1] != m {
			i = (i + 1) & mask
		}
		if t.slots[i] == 0 {
			t.edges = append(t.edges, m)
			t.slots[i] = uint32(len(t.edges))
		}
		ids = append(ids, int32(t.slots[i]-1))
	}
	return ids
}

// Group runs Algorithm 1 over the partial matches of q, one set per
// fragment as the sites reply: one linear scan that derives each match's
// mappings from its vector, interns them, and groups the matches into
// equivalence classes by the id tuple (set, interned g). Features and
// mappings are numbered in first-seen order.
func Group(q *query.Graph, sets []partial.Set) *Features { return build(q, sets, true) }

// Singletons returns one feature per partial match, in order, over the
// same mapping table: the features of the Basic join.
func Singletons(q *query.Graph, sets []partial.Set) *Features { return build(q, sets, false) }

func build(q *query.Graph, sets []partial.Set, group bool) *Features {
	n, fs := 0, &Features{}
	for _, s := range sets {
		n += s.Len()
		fs.Crossing += s.Crossing
	}
	fs.Sign, fs.FeatureOf = make([]uint64, 0, n), make([]int32, 0, n)
	// The sets counted the crossing edges by the rule: room for every one
	// a distinct mapping, and for every match its own feature.
	fs.tab.edges = make([]mapping, 0, fs.Crossing)
	fs.tab.slots = make([]uint32, 1<<bits.Len(uint(2*fs.Crossing+1)))
	var classes key.Set[int32] // feature fi is tuple fi
	if group {
		classes.Reserve(n, n+fs.Crossing)
	}
	tup := make([]int32, 0, 1+len(q.Edges)) // a set, then a mapping a query edge at most
	for k, s := range sets {
		for i, sign := range s.Sign {
			vec, edgeVars := s.At(i)
			tup = fs.tab.intern(append(tup[:0], int32(k)), q, vec, edgeVars, sign)
			fi, added := len(fs.Sign), true
			if group {
				fi, added = classes.Add(tup)
			} else {
				fs.tuples.Append(tup)
			}
			if added {
				fs.Sign = append(fs.Sign, sign)
			}
			fs.FeatureOf = append(fs.FeatureOf, int32(fi))
		}
	}
	if group {
		fs.tuples = classes.List()
	}
	// The members: count, prefix-sum, place in match order, so every
	// feature's are ascending, each by its index in its set.
	fs.pmOff = make([]int32, fs.Len()+1)
	for _, fi := range fs.FeatureOf {
		fs.pmOff[fi+1]++
	}
	for i := 1; i < len(fs.pmOff); i++ {
		fs.pmOff[i] += fs.pmOff[i-1]
	}
	fs.pms = make([]int32, n)
	of := fs.FeatureOf
	for _, s := range sets {
		for i := range int32(s.Len()) {
			fs.pms[fs.pmOff[of[0]]] = i
			fs.pmOff[of[0]]++
			of = of[1:]
		}
	}
	// Placing advanced every start to its end: shift back.
	copy(fs.pmOff[1:], fs.pmOff)
	fs.pmOff[0] = 0
	return fs
}

// Sink receives the members of each complete combination, ascending, as
// the walk completes it — every set of features whose LECSigns cover the
// query, each once. The slice is valid only during the call. Returning
// false ends the walk early, as a cancellation does.
type Sink func(members []int) bool

// PruneResult reports the outcome of a feature walk.
type PruneResult struct {
	// Retained[i] is true when feature i can contribute to a complete
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
// walked features, per-fragment ones the fragments (Features.Set).
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

// Walk is the one feature-level walk of every mode: Algorithm 2's pruning
// verdict and the complete combinations assembly expands come out of the
// same closure. allPairs proposes every pair instead of asking the
// crossing-edge index (the Basic join); cancel, when non-nil, is polled
// by every chunk. Roots are cut by p.Split — one chunk on a nil or
// one-wide pool — and a combination belongs to its minimum-index member,
// so chunks share nothing but the read-only index. A non-nil sink is
// called once per chunk, in chunk order before any runs, and the chunk
// hands every combination it completes to that Sink; the chunks' marks
// and counters are merged after the walk.
func Walk(fs *Features, q *query.Graph, allPairs bool, p *pool.Pool, cancel func() bool, sink func() Sink) PruneResult {
	walks.Add(1)
	c := &closure{q: q, fs: fs, allPairs: allPairs, cancel: cancel}
	c.buildIndex()
	var stop atomic.Bool
	n := fs.Len()
	chunks := p.Split(n)
	ws := make([]*walker, len(chunks))
	for k := range ws {
		ws[k] = &walker{c: c, full: fullSign(len(q.Vertices)), stop: &stop, retained: make([]bool, n), levels: newLevels(q)}
		if sink != nil {
			ws[k].sink = sink()
		}
	}
	p.Run(chunks, nil, func(k, lo, hi int) {
		if !ws[k].run(lo, hi) {
			stop.Store(true)
		}
	})
	res := PruneResult{Retained: make([]bool, n), Finished: !stop.Load(), Semijoin: c.sj}
	for _, w := range ws {
		res.Attempts += w.attempts
		res.States += w.states
	}
	for i := range res.Retained {
		res.Retained[i] = !res.Finished || slices.ContainsFunc(ws, func(w *walker) bool { return w.retained[i] })
	}
	return res
}

// Feature, Compute and Prune keep the entry points the benchmark
// module's layer drive calls (lec.Compute, then lec.Prune) as a thin
// adapter over Group and Walk. Compute groups the matches by the query
// they carry (partial.Match.Query) and returns one entry per feature of
// that grouping, each the same Feature, which holds the whole.
type Feature struct{ fs *Features }

// Compute is Group over pms, all of one query and each fragment's in one
// run, as the sites reply (partial.SetOf): one Feature per feature, and
// featureOf[j] the feature of pms[j].
func Compute(pms []*partial.Match) (features []*Feature, featureOf []int) {
	if len(pms) == 0 {
		return nil, nil
	}
	q := pms[0].Query
	fs := Group(q, partial.SetOf(q, pms))
	featureOf = make([]int, len(pms))
	for j, fi := range fs.FeatureOf {
		featureOf[j] = int(fi)
	}
	return slices.Repeat([]*Feature{{fs}}, fs.Len()), featureOf
}

// Prune is Algorithm 2 over Compute's features: the sequential,
// uncancellable Walk with no sink.
func Prune(features []*Feature, q *query.Graph) PruneResult {
	fs := Group(q, nil)
	if len(features) > 0 {
		fs = features[0].fs
	}
	return Walk(fs, q, false, nil, nil, nil)
}
