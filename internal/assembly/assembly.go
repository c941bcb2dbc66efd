// Package assembly joins local partial matches into complete crossing
// matches (Section V). Every mode is one lec.Walk over features whose
// sink, an Expansion, expands each complete combination as the walk finds
// it; the modes differ only in the features:
//
//   - LEC (Options.UseLEC): Algorithm 3 — the partial matches are grouped
//     into LEC features (lec.Compute) and the walk asks the crossing-edge
//     index for partners.
//   - Basic: the partitioning-based join of Peng et al. [18] that the
//     paper's gStoreD-Basic ablation uses — one singleton feature per
//     partial match, partners discovered by proposing every pair.
//
// The expansion re-checks serialization-vector compatibility at every
// depth, as the join conditions of [18] require, and keeps no set of its
// rows: a crossing match decomposes into exactly one set of local partial
// matches (Definition 5; see DESIGN.md "One join closure").
package assembly

import (
	"slices"
	"sync"

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
	Results      int // complete matches assembled
}

// Options tunes Assemble and Expansion.
type Options struct {
	// UseLEC selects the LEC-feature-based Algorithm 3 over the baseline
	// join of [18].
	UseLEC bool
	// Pool cuts the feature walk's roots into chunks (see lec.Walk); each
	// chunk expands the combinations it completes.
	Pool *pool.Pool
	// Cancel, when non-nil, is polled periodically; returning true
	// abandons the assembly, returning nil results (the partial stats
	// still reflect the work done before cancellation). With a Pool it
	// must be safe for concurrent use.
	Cancel func() bool
	// Emit receives each complete crossing match as it is discovered; an
	// Expansion requires it, and Assemble without it accumulates the
	// matches. Returning false stops the assembly early. With a Pool the
	// chunks call it concurrently, so it must be safe for concurrent use;
	// with a nil Pool it is called from one goroutine, in discovery order.
	Emit func(Result) bool
}

// Assemble joins the partial matches into complete crossing matches: it
// groups them into features — LEC features with UseLEC, one singleton
// feature per match for Basic — and walks the features once (every pair
// proposed for Basic), expanding each complete combination as the walk
// finds it. Without Emit it returns the matches in canonical row order.
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
	var out []Result
	if opts.Emit == nil {
		var mu sync.Mutex
		opts.Emit = func(r Result) bool {
			mu.Lock()
			defer mu.Unlock()
			out = append(out, r)
			return true
		}
	}
	x := NewExpansion(pms, features, opts)
	walk := lec.Walk(features, q, !opts.UseLEC, opts.Pool, opts.Cancel, x.Sink)
	if !walk.Finished {
		out = nil
	}
	slices.SortFunc(out, func(a, b Result) int {
		if d := slices.Compare(a.Vec, b.Vec); d != 0 {
			return d
		}
		return slices.Compare(a.EdgeVars, b.EdgeVars)
	})
	return out, x.Stats(walk)
}

// Expansion is the second half of every assembly, the sink of a walk over
// features, each grouping matches of pms: each complete combination
// becomes the cross product of its members' partial matches, joined under
// the vector condition of [18] at every depth — features abstract
// internal vertices away, so two members of joinable features can still
// disagree on one — and each match goes to Emit.
type Expansion struct {
	pms      []*partial.Match
	features []*lec.Feature
	opts     Options
	chunks   []*expander
}

// expander is one walk chunk's expansion: its count and its cancellation
// polls.
type expander struct {
	*Expansion
	results int
	polls   uint
}

// NewExpansion returns the expansion of a walk over features into
// crossing matches, delivered to opts.Emit.
func NewExpansion(pms []*partial.Match, features []*lec.Feature, opts Options) *Expansion {
	return &Expansion{pms: pms, features: features, opts: opts}
}

// Sink returns a new chunk's sink: lec.Walk's sink argument.
func (x *Expansion) Sink() lec.Sink {
	e := &expander{Expansion: x}
	x.chunks = append(x.chunks, e)
	return func(members []int) bool { return e.grow(members, 0, Result{}) }
}

// Stats returns the counters of walk and of the expansion it drove.
func (x *Expansion) Stats(walk lec.PruneResult) Stats {
	stats := Stats{JoinAttempts: walk.Attempts, States: walk.States}
	for _, e := range x.chunks {
		stats.Results += e.results
	}
	return stats
}

// grow joins the matches of members[d:] onto r, depth first, reporting
// false when the assembly is to stop.
func (e *expander) grow(members []int, d int, r Result) bool {
	for _, pi := range e.features[members[d]].PMs {
		if e.opts.Cancel != nil {
			if e.polls&0xff == 0 && e.opts.Cancel() {
				return false
			}
			e.polls++
		}
		// The first member's match is aliased; join never writes to its
		// input.
		next, ok := Result{e.pms[pi].Vec, e.pms[pi].EdgeVars}, true
		if d > 0 {
			next, ok = join(r, e.pms[pi])
		}
		if !ok {
			continue
		}
		if d < len(members)-1 {
			ok = e.grow(members, d+1, next)
		} else {
			e.results++
			ok = e.opts.Emit(next)
		}
		if !ok {
			return false
		}
	}
	return true
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
