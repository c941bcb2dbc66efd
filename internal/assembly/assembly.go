// Package assembly joins local partial matches into complete crossing
// matches (Section V). Two algorithms are provided with identical
// semantics:
//
//   - LEC: Algorithm 3 — partial matches are grouped by LECSign
//     (Definition 11), candidate join partners are found through a
//     crossing-edge index, and combinations grow canonically from their
//     minimum-index member so each connected combination is visited once.
//   - Basic: the partitioning-based join of Peng et al. [18] that the
//     paper's gStoreD-Basic ablation uses — same closure, but partners are
//     discovered by scanning all partial matches and testing full
//     joinability pairwise, with no sign grouping and no edge index.
//
// Joins always re-check serialization-vector compatibility, as required by
// the join conditions of [18] (see DESIGN.md fidelity note 1).
package assembly

import (
	"sort"

	"gstored/internal/key"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Result is one complete crossing match: a fully bound vector plus edge
// variable bindings.
type Result struct {
	Vec      []rdf.TermID
	EdgeVars []rdf.TermID
}

// Key canonically identifies the result row (layout: package key).
func (r Result) Key() string {
	var buf [128]byte
	return string(key.Terms(key.Terms(buf[:0], r.Vec), r.EdgeVars))
}

// Stats reports work performed by an assembly run.
type Stats struct {
	JoinAttempts int // pairwise compatibility tests
	States       int // intermediate join states materialized
	Results      int // complete matches (after dedup)
}

// Options tunes Assemble.
type Options struct {
	// UseLEC selects the LEC-feature-based Algorithm 3 over the baseline
	// join of [18].
	UseLEC bool
	// Cancel, when non-nil, is polled periodically; returning true
	// abandons the assembly, returning nil results (the partial stats
	// still reflect the work done before cancellation).
	Cancel func() bool
	// Emit, when non-nil, receives each complete crossing match as it is
	// discovered (deduplicated, in discovery order) instead of the match
	// being accumulated; Assemble then returns nil results and callers
	// own whatever Emit built. Returning false stops the assembly early.
	// Stats.Results still counts the emitted matches.
	Emit func(Result) bool
}

// LEC assembles pms with the LEC-feature-based Algorithm 3.
func LEC(pms []*partial.Match, q *query.Graph) ([]Result, Stats) {
	return Assemble(pms, q, Options{UseLEC: true})
}

// Basic assembles pms with the baseline join of [18].
func Basic(pms []*partial.Match, q *query.Graph) ([]Result, Stats) {
	return Assemble(pms, q, Options{})
}

// joinState is a partially assembled crossing match.
type joinState struct {
	vec     []rdf.TermID
	evb     []rdf.TermID
	sign    uint64
	matched uint64
	members []int
	// qmap records, per query edge, the crossing edge covering it
	// (S == NoTerm when none yet); used by the indexed expansion.
	qmap []partial.CrossEdge
}

// Assemble joins the partial matches into complete crossing matches.
func Assemble(pms []*partial.Match, q *query.Graph, opts Options) ([]Result, Stats) {
	useLEC := opts.UseLEC
	var stats Stats
	if len(pms) == 0 {
		return nil, stats
	}
	full := fullSign(len(q.Vertices))

	// Crossing-edge index for the LEC variant's connected expansion.
	var byMapping map[partial.CrossEdge][]int
	if useLEC {
		byMapping = make(map[partial.CrossEdge][]int)
		for i, pm := range pms {
			for _, c := range pm.Crossing {
				byMapping[c] = append(byMapping[c], i)
			}
		}
	}

	var steps uint
	var kbuf [128]byte // member-set key scratch
	// Complete matches are deduplicated by row key: distinct member sets
	// can assemble into identical rows. With Emit set only the key set is
	// retained; otherwise the results themselves accumulate.
	var results map[string]Result
	var emitted map[string]bool
	if opts.Emit != nil {
		emitted = make(map[string]bool)
	} else {
		results = make(map[string]Result)
	}
	for root := 0; root < len(pms); root++ {
		init := stateFrom(pms[root], root, q)
		frontier := []*joinState{init}
		seen := map[string]bool{string(key.Ints(kbuf[:0], init.members)): true}
		for len(frontier) > 0 {
			if opts.Cancel != nil {
				if steps&0xff == 0 && opts.Cancel() {
					return nil, stats
				}
				steps++
			}
			s := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			for _, cand := range candidates(s, pms, byMapping, root, useLEC, &stats) {
				ns, ok := s.extend(pms[cand], cand, q)
				stats.JoinAttempts++
				if !ok {
					continue
				}
				mk := key.Ints(kbuf[:0], ns.members)
				if seen[string(mk)] { // lookup by converted bytes does not allocate
					continue
				}
				seen[string(mk)] = true
				stats.States++
				if ns.sign == full {
					// Theorem 4: full sign cover implies all edges matched.
					r := Result{Vec: ns.vec, EdgeVars: ns.evb}
					rk := r.Key()
					if opts.Emit != nil {
						if !emitted[rk] {
							emitted[rk] = true
							stats.Results++
							if !opts.Emit(r) {
								return nil, stats
							}
						}
					} else {
						results[rk] = r
					}
					continue
				}
				frontier = append(frontier, ns)
			}
		}
	}
	if opts.Emit != nil {
		return nil, stats
	}
	out := make([]Result, 0, len(results))
	for _, r := range results {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	stats.Results = len(out)
	return out, stats
}

func stateFrom(pm *partial.Match, idx int, q *query.Graph) *joinState {
	s := &joinState{
		vec:     append([]rdf.TermID(nil), pm.Vec...),
		evb:     append([]rdf.TermID(nil), pm.EdgeVars...),
		sign:    pm.Sign,
		matched: pm.MatchedEdges,
		members: []int{idx},
		qmap:    make([]partial.CrossEdge, len(q.Edges)),
	}
	for _, c := range pm.Crossing {
		s.qmap[c.QEdge] = c
	}
	return s
}

// candidates proposes partial matches to join into s. The LEC variant
// looks up only PMs sharing a crossing-edge mapping; the basic variant
// proposes everything with a larger index.
func candidates(s *joinState, pms []*partial.Match, byMapping map[partial.CrossEdge][]int, root int, useLEC bool, stats *Stats) []int {
	in := make(map[int]bool, len(s.members))
	for _, m := range s.members {
		in[m] = true
	}
	var out []int
	if useLEC {
		seen := map[int]bool{}
		for qe := range s.qmap {
			if s.qmap[qe].S == rdf.NoTerm {
				continue
			}
			for _, i := range byMapping[s.qmap[qe]] {
				if i <= root || in[i] || seen[i] {
					continue
				}
				seen[i] = true
				out = append(out, i)
			}
		}
		sort.Ints(out)
		return out
	}
	// Basic: scan everything; sharing is re-discovered inside extend (the
	// connectivity requirement still applies), burning the join attempts
	// the LEC index avoids.
	for i := root + 1; i < len(pms); i++ {
		if !in[i] {
			out = append(out, i)
		}
	}
	return out
}

// extend joins pm into s. The join conditions of [18] apply: the two sides
// must share at least one crossing edge mapped to the same query edge, no
// query edge may be covered by two different crossing edges, the LECSigns
// must be disjoint, and the serialization vectors (and edge-variable
// bindings) must agree wherever both are non-NULL.
func (s *joinState) extend(pm *partial.Match, idx int, q *query.Graph) (*joinState, bool) {
	if s.sign&pm.Sign != 0 {
		return nil, false
	}
	shared := false
	for _, c := range pm.Crossing {
		cur := s.qmap[c.QEdge]
		if cur.S == rdf.NoTerm {
			continue
		}
		if cur == c {
			shared = true
		} else {
			return nil, false // same query edge, different crossing edge
		}
	}
	if !shared {
		return nil, false
	}
	// Vector compatibility.
	for i, v := range pm.Vec {
		if v != rdf.NoTerm && s.vec[i] != rdf.NoTerm && s.vec[i] != v {
			return nil, false
		}
	}
	for i, v := range pm.EdgeVars {
		if v != rdf.NoTerm && s.evb[i] != rdf.NoTerm && s.evb[i] != v {
			return nil, false
		}
	}
	ns := &joinState{
		vec:     append([]rdf.TermID(nil), s.vec...),
		evb:     append([]rdf.TermID(nil), s.evb...),
		sign:    s.sign | pm.Sign,
		matched: s.matched | pm.MatchedEdges,
		members: append(append([]int(nil), s.members...), idx),
		qmap:    append([]partial.CrossEdge(nil), s.qmap...),
	}
	sort.Ints(ns.members)
	for i, v := range pm.Vec {
		if v != rdf.NoTerm {
			ns.vec[i] = v
		}
	}
	for i, v := range pm.EdgeVars {
		if v != rdf.NoTerm {
			ns.evb[i] = v
		}
	}
	for _, c := range pm.Crossing {
		ns.qmap[c.QEdge] = c
	}
	return ns, true
}

func fullSign(n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(n)) - 1
}
