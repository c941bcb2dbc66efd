// Package assembly joins local partial matches into complete crossing
// matches (Section V). Every mode is one lec.Walk over features followed
// by one Expand of the complete combinations it finds; the modes differ
// only in the features:
//
//   - LEC (Options.UseLEC): Algorithm 3 — the partial matches are grouped
//     into LEC features (lec.Compute) and the walk asks the crossing-edge
//     index for partners.
//   - Basic: the partitioning-based join of Peng et al. [18] that the
//     paper's gStoreD-Basic ablation uses — one singleton feature per
//     partial match, partners discovered by proposing every pair.
//
// Expand re-checks serialization-vector compatibility at every depth, as
// required by the join conditions of [18] (see DESIGN.md "One join
// closure").
package assembly

import (
	"slices"

	"gstored/internal/key"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Result is one complete crossing match: a fully bound vector plus edge
// variable bindings.
type Result struct {
	Vec      []rdf.TermID
	EdgeVars []rdf.TermID
}

// Stats reports work performed by an assembly run.
type Stats struct {
	JoinAttempts int // join steps the closure walk tried
	States       int // intermediate join states materialized
	Results      int // complete matches (after dedup)
}

// Options tunes Assemble and Expand.
type Options struct {
	// UseLEC selects the LEC-feature-based Algorithm 3 over the baseline
	// join of [18].
	UseLEC bool
	// Pool cuts the feature walk's roots into chunks (see lec.Walk);
	// expansion is sequential.
	Pool *pool.Pool
	// Cancel, when non-nil, is polled periodically; returning true
	// abandons the assembly, returning nil results (the partial stats
	// still reflect the work done before cancellation). With a Pool it
	// must be safe for concurrent use.
	Cancel func() bool
	// Emit, when non-nil, receives each complete crossing match as it is
	// discovered (deduplicated, in discovery order) instead of the match
	// being accumulated; Assemble then returns nil results and callers
	// own whatever Emit built. Returning false stops the assembly early.
	// Stats.Results still counts the emitted matches.
	Emit func(Result) bool
}

// collector is the one end of every assembly: complete matches are
// deduplicated — distinct member sets can assemble into identical rows —
// then emitted or accumulated. A row's identity is its Vec followed by
// its EdgeVars, whose lengths the query fixes.
type collector struct {
	opts  Options
	done  key.Set[rdf.TermID]
	buf   []rdf.TermID
	out   []Result
	stats Stats
}

func (c *collector) complete(r Result) bool {
	c.buf = append(append(c.buf[:0], r.Vec...), r.EdgeVars...)
	if _, added := c.done.Add(c.buf); !added {
		return true
	}
	c.stats.Results++
	if c.opts.Emit != nil {
		return c.opts.Emit(r)
	}
	c.out = append(c.out, r)
	return true
}

// finish returns what the assembly accumulated, in canonical row order;
// nil when it was abandoned.
func (c *collector) finish(finished bool) ([]Result, Stats) {
	if !finished {
		return nil, c.stats
	}
	slices.SortFunc(c.out, func(a, b Result) int {
		if d := slices.Compare(a.Vec, b.Vec); d != 0 {
			return d
		}
		return slices.Compare(a.EdgeVars, b.EdgeVars)
	})
	return c.out, c.stats
}

// Assemble joins the partial matches into complete crossing matches: it
// groups them into features — LEC features with UseLEC, one singleton
// feature per match for Basic — walks the features once (every pair
// proposed for Basic) and expands the complete combinations.
func Assemble(pms []*partial.Match, q *query.Graph, opts Options) ([]Result, Stats) {
	var features []*lec.Feature
	if opts.UseLEC {
		features, _ = lec.Compute(pms)
	} else {
		features = make([]*lec.Feature, len(pms))
		for i, pm := range pms {
			features[i] = &lec.Feature{Frag: pm.Frag, Mappings: pm.Crossing, Sign: pm.Sign, PMs: []int{i}}
		}
	}
	return Expand(pms, features, lec.Walk(features, q, !opts.UseLEC, opts.Pool, opts.Cancel), q, opts)
}

// Expand is the second half of every assembly: walk is a finished walk
// over features, each grouping matches of pms, and each of its complete
// combinations becomes the cross product of its members' partial
// matches, joined under the vector condition of [18] at every depth —
// features abstract internal vertices away, so two members of joinable
// features can still disagree on one. Only matches of retained features
// are read. A walk that did not finish expands to nothing (nil results).
func Expand(pms []*partial.Match, features []*lec.Feature, walk lec.PruneResult, q *query.Graph, opts Options) ([]Result, Stats) {
	col := collector{opts: opts}
	col.stats.JoinAttempts, col.stats.States = walk.Attempts, walk.States
	var polls uint
	var grow func(members []int, d int, r Result) bool
	grow = func(members []int, d int, r Result) bool {
		for _, pi := range features[members[d]].PMs {
			if opts.Cancel != nil {
				if polls&0xff == 0 && opts.Cancel() {
					return false
				}
				polls++
			}
			// The first member's match is aliased; join never writes to
			// its input.
			next, ok := Result{pms[pi].Vec, pms[pi].EdgeVars}, true
			if d > 0 {
				next, ok = join(r, pms[pi])
			}
			if !ok {
				continue
			}
			if d == len(members)-1 {
				ok = col.complete(next)
			} else {
				ok = grow(members, d+1, next)
			}
			if !ok {
				return false
			}
		}
		return true
	}
	finished := walk.Finished
	for k := 0; finished && k < walk.Combos.Len(); k++ {
		finished = grow(walk.Combos.At(k), 0, Result{})
	}
	return col.finish(finished)
}

// join merges partial match pm into r when their serialization vectors
// and edge-variable bindings are compatible; r is not modified.
func join(r Result, pm *partial.Match) (Result, bool) {
	if !compatible(r.Vec, pm.Vec) || !compatible(r.EdgeVars, pm.EdgeVars) {
		return Result{}, false
	}
	return Result{merge(r.Vec, pm.Vec), merge(r.EdgeVars, pm.EdgeVars)}, true
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

// merge returns a overlaid with the non-NULL entries of b: a itself when
// b binds nothing a lacks (edge variables, typically), a copy otherwise.
func merge(a, b []rdf.TermID) []rdf.TermID {
	copied := false
	for i, v := range b {
		if v == rdf.NoTerm || a[i] == v {
			continue
		}
		if !copied {
			a, copied = slices.Clone(a), true
		}
		a[i] = v
	}
	return a
}
