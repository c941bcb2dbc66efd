// Package assembly joins local partial matches into complete crossing
// matches (Section V) by walking lec.Closure over them. Two algorithms
// share that walk and therefore their semantics:
//
//   - LEC (Options.UseLEC): Algorithm 3 — candidate join partners are found
//     through a crossing-edge index.
//   - Basic: the partitioning-based join of Peng et al. [18] that the
//     paper's gStoreD-Basic ablation uses — partners are discovered by
//     scanning all partial matches and testing joinability pairwise.
//
// Joins always re-check serialization-vector compatibility, as required by
// the join conditions of [18] (see DESIGN.md "One join closure").
package assembly

import (
	"slices"
	"sort"

	"gstored/internal/key"
	"gstored/internal/lec"
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

// Assemble joins the partial matches into complete crossing matches: the
// lec.Closure over single partial matches, each state carrying its merged
// vector and edge-variable bindings as a Result, with partners found
// through the crossing-edge index (UseLEC) or by scanning every larger
// index.
func Assemble(pms []*partial.Match, q *query.Graph, opts Options) ([]Result, Stats) {
	var stats Stats
	var out []Result
	// Complete matches are deduplicated by row key: distinct member sets
	// can assemble into identical rows.
	done := make(map[string]bool)
	c := lec.Closure[Result]{
		Q: q, Items: make([]lec.Item, len(pms)), AllPairs: !opts.UseLEC, Cancel: opts.Cancel,
		// A root's payload aliases its partial match; Join never writes
		// to its input.
		Root: func(i int) Result { return Result{pms[i].Vec, pms[i].EdgeVars} },
		Join: func(r Result, i int) (Result, bool) {
			if !compatible(r.Vec, pms[i].Vec) || !compatible(r.EdgeVars, pms[i].EdgeVars) {
				return Result{}, false
			}
			return Result{merge(r.Vec, pms[i].Vec), merge(r.EdgeVars, pms[i].EdgeVars)}, true
		},
		Complete: func(_ []int, r Result) bool {
			rk := r.Key()
			if done[rk] {
				return true
			}
			done[rk] = true
			stats.Results++
			if opts.Emit != nil {
				return opts.Emit(r)
			}
			out = append(out, r)
			return true
		},
	}
	for i, pm := range pms {
		c.Items[i] = lec.Item{Sign: pm.Sign, Mappings: pm.Crossing}
	}
	finished := c.Run()
	stats.JoinAttempts, stats.States = c.Attempts, c.States
	if !finished {
		return nil, stats
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out, stats
}

// compatible reports whether two serialization vectors agree wherever
// both are non-NULL — the vector condition of [18], which the closure's
// crossing-edge checks do not imply for internal vertices.
func compatible(a, b []rdf.TermID) bool {
	for i, v := range b {
		if v != rdf.NoTerm && a[i] != rdf.NoTerm && a[i] != v {
			return false
		}
	}
	return true
}

// merge returns a copy of a overlaid with the non-NULL entries of b.
func merge(a, b []rdf.TermID) []rdf.TermID {
	out := slices.Clone(a)
	for i, v := range b {
		if v != rdf.NoTerm {
			out[i] = v
		}
	}
	return out
}
