// Package assembly joins local partial matches into complete crossing
// matches (Section V). Every mode is one lec.Walk over features whose
// sink, an Expansion, expands each complete combination as the walk finds
// it; the modes differ only in the features:
//
//   - LEC: Algorithm 3 — the partial matches are grouped into LEC
//     features (lec.Group) and the walk asks the crossing-edge index for
//     partners.
//   - Basic: the partitioning-based join of Peng et al. [18] that the
//     paper's gStoreD-Basic ablation uses — one singleton feature per
//     partial match (lec.Singletons), partners discovered by proposing
//     every pair.
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
// variable bindings. Its slices are the expansion's scratch or a partial
// match's own, so a Result is valid only during the Emit call that hands
// it over: a receiver that keeps it copies it.
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
	// UseLEC selects, for Assemble, the LEC-feature-based Algorithm 3
	// over the baseline join of [18].
	UseLEC bool
	// Pool cuts the feature walk's roots into chunks (see lec.Walk); each
	// chunk expands the combinations it completes.
	Pool *pool.Pool
	// Cancel, when non-nil, is polled periodically; returning true
	// abandons the assembly, returning nil results (the partial stats
	// still reflect the work done before cancellation). With a Pool it
	// must be safe for concurrent use.
	Cancel func() bool
	// Emit receives each complete crossing match as it is discovered,
	// valid during the call; an Expansion's Sink requires it (SinkTo
	// takes a chunk's own instead), and Assemble without it accumulates
	// copies. Returning false stops the assembly early. With a Pool the
	// chunks call it concurrently, so it must be safe for concurrent use;
	// with a nil Pool it is called from one goroutine, in discovery
	// order.
	Emit func(Result) bool
}

// Assemble joins the partial matches into complete crossing matches as
// the engine does: it groups them into features — LEC features with
// UseLEC, one singleton feature per match for Basic — and walks them
// once, every pair proposed unless UseLEC, with an Expansion as the
// walk's sink. Without Emit it returns copies of the matches in
// canonical row order.
func Assemble(pms []*partial.Match, q *query.Graph, opts Options) ([]Result, Stats) {
	sets := partial.SetOf(q, pms)
	var fs *lec.Features
	if opts.UseLEC {
		fs = lec.Group(q, sets)
	} else {
		fs = lec.Singletons(q, sets)
	}
	var out []Result
	if opts.Emit == nil {
		var mu sync.Mutex
		opts.Emit = func(r Result) bool {
			mu.Lock()
			defer mu.Unlock()
			out = append(out, Result{slices.Clone(r.Vec), slices.Clone(r.EdgeVars)})
			return true
		}
	}
	x := NewExpansion(sets, fs, opts)
	walk := lec.Walk(fs, q, !opts.UseLEC, opts.Pool, opts.Cancel, x.Sink)
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
// features, each grouping matches of one of the sets fs was built from:
// each complete combination becomes the cross product of its members'
// partial matches, joined under the vector condition of [18] at every
// depth — features abstract internal vertices away, so two members of
// joinable features can still disagree on one — and each match goes to
// Emit.
type Expansion struct {
	sets   []partial.Set
	fs     *lec.Features
	opts   Options
	chunks []*expander
}

// expander is one walk chunk's expansion: where its matches go, its
// count, its cancellation polls, and per depth d > 0 the scratch its
// joined vectors are written to.
type expander struct {
	*Expansion
	emit      func(Result) bool
	results   int
	polls     uint
	vecs, evs [][]rdf.TermID
}

// NewExpansion returns the expansion of a walk over features fs, grouping
// the matches of sets, into crossing matches, delivered to opts.Emit
// (Sink) or to each chunk's own emit (SinkTo).
func NewExpansion(sets []partial.Set, fs *lec.Features, opts Options) *Expansion {
	return &Expansion{sets: sets, fs: fs, opts: opts}
}

// Sink returns a new chunk's sink emitting to opts.Emit: lec.Walk's sink
// argument.
func (x *Expansion) Sink() lec.Sink { return x.SinkTo(x.opts.Emit) }

// SinkTo returns a new chunk's sink emitting to emit, which only that
// chunk calls: a caller keeping per-chunk state makes one per chunk.
func (x *Expansion) SinkTo(emit func(Result) bool) lec.Sink {
	e := &expander{Expansion: x, emit: emit}
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
	if d == len(e.vecs) {
		e.vecs, e.evs = append(e.vecs, nil), append(e.evs, nil)
	}
	s := &e.sets[e.fs.Set(members[d])]
	for _, pi := range e.fs.PMs(members[d]) {
		if e.opts.Cancel != nil {
			if e.polls&0xff == 0 && e.opts.Cancel() {
				return false
			}
			e.polls++
		}
		// The first member's match is aliased; deeper ones are joined
		// into the depth's scratch.
		vec, edgeVars := s.At(int(pi))
		next := Result{vec, edgeVars}
		if d > 0 {
			if !compatible(r.Vec, vec) || !compatible(r.EdgeVars, edgeVars) {
				continue
			}
			e.vecs[d], e.evs[d] = merge(e.vecs[d], r.Vec, vec), merge(e.evs[d], r.EdgeVars, edgeVars)
			next = Result{e.vecs[d], e.evs[d]}
		}
		if d < len(members)-1 {
			if !e.grow(members, d+1, next) {
				return false
			}
		} else if e.results++; !e.emit(next) {
			return false
		}
	}
	return true
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

// merge writes a overlaid with the non-NULL entries of b into dst,
// reusing its array, and returns it; nil when a is empty (edge variables
// of a query without them).
func merge(dst, a, b []rdf.TermID) []rdf.TermID {
	if len(a) == 0 {
		return nil
	}
	dst = append(dst[:0], a...)
	for i, v := range b {
		if v != rdf.NoTerm {
			dst[i] = v
		}
	}
	return dst
}
