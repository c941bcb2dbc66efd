// Package partition implements the vertex-disjoint RDF graph partitioning
// strategies evaluated in the paper (§VII, §VIII-D): hash partitioning,
// semantic hash partitioning [15], and a METIS-like multilevel min-edge-cut
// partitioner [14], together with the CostPartitioning model of Section VII
// used to select among existing partitionings.
package partition

import (
	"fmt"
	"hash/fnv"
	"maps"
	"sort"
	"strings"

	"gstored/internal/rdf"
	"gstored/internal/store"
)

// Assignment is a vertex-disjoint partitioning: every vertex of the graph
// is mapped to exactly one of K fragments. Read it through Lookup or
// FragmentOf: Frag alone misses the vertices updates placed.
type Assignment struct {
	K int
	// Frag is the strategy's placement.
	Frag map[rdf.TermID]int
	// StrategyName records which strategy produced the assignment.
	StrategyName string

	// placed holds the vertices WithVertices placed after the strategy
	// ran, so that placing one copies this overlay and shares Frag.
	placed map[rdf.TermID]int
}

// FragmentOf returns the fragment owning v. Vertices the assignment
// does not cover fall back to fragment 0 — acceptable for diagnostics,
// but silently wrong for routing: callers that may hold an uncovered
// vertex (anything at a repartition boundary) must use Lookup instead.
// fragment.Build and DB.Repartition enforce full coverage via Validate
// before an assignment ever routes live traffic, so inside a built
// Distributed the fallback is unreachable.
func (a *Assignment) FragmentOf(v rdf.TermID) int {
	f, _ := a.Lookup(v)
	return f
}

// Lookup returns the fragment owning v and whether the assignment
// covers v at all. Unlike FragmentOf it never invents an owner: callers
// routing traffic across a repartition boundary must treat !ok as "this
// assignment does not know the vertex", not as fragment 0.
func (a *Assignment) Lookup(v rdf.TermID) (int, bool) {
	if f, ok := a.Frag[v]; ok {
		return f, true
	}
	f, ok := a.placed[v]
	return f, ok
}

// WithVertices returns an assignment additionally covering vs, placing
// each vertex the assignment does not already know by hashing its
// lexical form modulo K — the Hash strategy's rule, applied pointwise.
// Vertices already covered keep their fragment. When every vertex is
// already covered the receiver is returned unchanged; otherwise the new
// assignment shares Frag and copies the overlay of vertices placed this
// way, so concurrent readers of the original assignment (an older
// cluster generation mid-query) are never raced, and a write pays for
// the vertices updates placed, not for the graph.
//
// This is the incremental placement rule of the update path: a strategy-
// faithful placement (e.g. re-running semantic hashing around the new
// vertex) would need the strategy and its global context, which is what
// full repartitioning (DB.Repartition) is for.
func (a *Assignment) WithVertices(dict *rdf.Dictionary, vs []rdf.TermID) *Assignment {
	var fresh []rdf.TermID
	for _, v := range vs {
		if _, ok := a.Lookup(v); !ok {
			fresh = append(fresh, v)
		}
	}
	if len(fresh) == 0 {
		return a
	}
	next := &Assignment{K: a.K, StrategyName: a.StrategyName, Frag: a.Frag, placed: make(map[rdf.TermID]int, len(a.placed)+len(fresh))}
	maps.Copy(next.placed, a.placed)
	for _, v := range fresh {
		next.placed[v] = int(hashString(dict.MustDecode(v).String()) % uint64(a.K))
	}
	return next
}

// Validate checks that the assignment covers every vertex of st with a
// fragment index in [0, K).
func (a *Assignment) Validate(st *store.Store) error {
	if a.K <= 0 {
		return fmt.Errorf("partition: K = %d", a.K)
	}
	for _, v := range st.Vertices() {
		f, ok := a.Lookup(v)
		if !ok {
			return fmt.Errorf("partition: vertex %d unassigned", v)
		}
		if f < 0 || f >= a.K {
			return fmt.Errorf("partition: vertex %d assigned to fragment %d of %d", v, f, a.K)
		}
	}
	return nil
}

// Strategy produces an Assignment of the vertices of a store into k
// fragments. Implementations must be deterministic for a given input.
type Strategy interface {
	Name() string
	Partition(st *store.Store, k int) (*Assignment, error)
}

// ---------------------------------------------------------------------------
// Hash partitioning: H(v) MOD N over the vertex's lexical form (the paper's
// default, §VIII-A).

// Hash is the paper's default strategy: FNV-1a over the term's canonical
// N-Triples form, modulo the fragment count.
type Hash struct{}

// Name implements Strategy.
func (Hash) Name() string { return "hash" }

// Partition implements Strategy.
func (Hash) Partition(st *store.Store, k int) (*Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: hash: k = %d", k)
	}
	a := &Assignment{K: k, Frag: make(map[rdf.TermID]int, st.NumVertices()), StrategyName: "hash"}
	for _, v := range st.Vertices() {
		a.Frag[v] = int(hashString(st.Dict.MustDecode(v).String()) % uint64(k))
	}
	return a, nil
}

func hashString(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s)) // fnv.Write is documented to never fail
	return h.Sum64()
}

// ---------------------------------------------------------------------------
// Semantic hash partitioning (Lee & Liu [15]): vertices sharing a URI
// hierarchy prefix are co-located; non-IRI vertices (literals, blanks) are
// placed with the majority of their neighbors so attribute edges stay
// internal, mirroring [15]'s triple-group expansion.

// SemanticHash groups IRIs by URI-hierarchy prefix and co-locates literal
// and blank vertices with their neighbors.
type SemanticHash struct{}

// Name implements Strategy.
func (SemanticHash) Name() string { return "semantic-hash" }

// Partition implements Strategy.
func (SemanticHash) Partition(st *store.Store, k int) (*Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: semantic-hash: k = %d", k)
	}
	a := &Assignment{K: k, Frag: make(map[rdf.TermID]int, st.NumVertices()), StrategyName: "semantic-hash"}

	// First pass: measure hierarchy group sizes. Groups too large to fit a
	// balanced fragment are split by hashing the full URI — this is what
	// makes semantic hash degenerate to plain hashing on datasets with a
	// single flat hierarchy such as YAGO2 (Section VIII-D).
	groupSize := make(map[string]int)
	for _, v := range st.Vertices() {
		if t := st.Dict.MustDecode(v); t.IsIRI() {
			groupSize[semanticKey(t.Value)]++
		}
	}
	maxGroup := st.NumVertices()/k + 1

	var deferred []rdf.TermID
	for _, v := range st.Vertices() {
		t := st.Dict.MustDecode(v)
		if t.IsIRI() {
			key := semanticKey(t.Value)
			if groupSize[key] > maxGroup {
				key = t.Value
			}
			a.Frag[v] = int(hashString(key) % uint64(k))
		} else {
			deferred = append(deferred, v)
		}
	}
	// Second pass: place literals/blanks with the plurality fragment of
	// their already-assigned neighbors; isolated ones fall back to hashing.
	for _, v := range deferred {
		votes := make([]int, k)
		voted := false
		for _, he := range st.Out(v) {
			if f, ok := a.Frag[he.V]; ok {
				votes[f]++
				voted = true
			}
		}
		for _, he := range st.In(v) {
			if f, ok := a.Frag[he.V]; ok {
				votes[f]++
				voted = true
			}
		}
		if !voted {
			a.Frag[v] = int(hashString(st.Dict.MustDecode(v).String()) % uint64(k))
			continue
		}
		best := 0
		for f := 1; f < k; f++ {
			if votes[f] > votes[best] {
				best = f
			}
		}
		a.Frag[v] = best
	}
	return a, nil
}

// semanticKey extracts the URI hierarchy prefix: the IRI up to its last
// path component ('/' or '#' separated). For example both
// http://www.dept3.univ0.edu/prof5 and http://www.dept3.univ0.edu/course9
// share the key http://www.dept3.univ0.edu.
func semanticKey(iri string) string {
	cut := len(iri)
	if i := strings.LastIndexByte(iri, '#'); i >= 0 {
		cut = i
	} else if i := strings.LastIndexByte(iri, '/'); i > len("http://") {
		cut = i
	}
	return iri[:cut]
}

// ---------------------------------------------------------------------------
// Cost model of Section VII.

// CostBreakdown carries the terms of CostPartitioning(F) = E_F(V) × max_i
// |E_i ∪ E_i^c|, plus supporting statistics.
type CostBreakdown struct {
	// EV is E_F(V) = Σ_v |N(v) ∩ E^c|² / (2|E^c|): the expected number of
	// crossing edges concentrated on a single vertex. Lower means crossing
	// edges are scattered across more boundary vertices.
	EV float64
	// MaxFragmentEdges is max_i |E_i ∪ E_i^c| (internal plus adjacent
	// crossing edge instances of the largest fragment).
	MaxFragmentEdges int
	// Cost is EV × MaxFragmentEdges.
	Cost float64
	// NumCrossing is |E^c|, the number of crossing edge instances.
	NumCrossing int
	// FragmentEdges lists |E_i ∪ E_i^c| per fragment.
	FragmentEdges []int
}

// Cost evaluates the Section VII partitioning cost of assignment a over the
// graph in st. Crossing counts stay integers until the one division of
// E_F(V), so the result does not depend on map iteration order.
func Cost(st *store.Store, a *Assignment) CostBreakdown {
	crossAt := make(map[rdf.TermID]int) // |N(v) ∩ E^c| per vertex
	b := CostBreakdown{FragmentEdges: make([]int, a.K)}
	for _, s := range st.Vertices() {
		fs := a.FragmentOf(s)
		for _, he := range st.Out(s) {
			b.FragmentEdges[fs]++
			fo := a.FragmentOf(he.V)
			if fs == fo {
				continue
			}
			b.NumCrossing++
			crossAt[s]++
			crossAt[he.V]++
			b.FragmentEdges[fo]++
		}
	}
	if b.NumCrossing > 0 {
		sq := 0
		for _, c := range crossAt {
			sq += c * c
		}
		b.EV = float64(sq) / float64(2*b.NumCrossing)
	}
	for _, e := range b.FragmentEdges {
		b.MaxFragmentEdges = max(b.MaxFragmentEdges, e)
	}
	b.Cost = b.EV * float64(b.MaxFragmentEdges)
	return b
}

// SelectBest runs every strategy and returns the assignment with the
// smallest CostPartitioning, together with the per-strategy costs keyed by
// strategy name (the paper's §VII selection rule).
func SelectBest(st *store.Store, k int, strategies ...Strategy) (*Assignment, map[string]CostBreakdown, error) {
	if len(strategies) == 0 {
		return nil, nil, fmt.Errorf("partition: no strategies supplied")
	}
	costs := make(map[string]CostBreakdown, len(strategies))
	var best *Assignment
	bestCost := 0.0
	for _, s := range strategies {
		a, err := s.Partition(st, k)
		if err != nil {
			return nil, nil, fmt.Errorf("partition: %s: %w", s.Name(), err)
		}
		c := Cost(st, a)
		costs[s.Name()] = c
		if best == nil || c.Cost < bestCost {
			best, bestCost = a, c.Cost
		}
	}
	return best, costs, nil
}

// sortedVertices returns st's vertices ordered by their lexical form; used
// by deterministic partitioners that need a stable, ID-independent order.
func sortedVertices(st *store.Store) []rdf.TermID {
	vs := append([]rdf.TermID(nil), st.Vertices()...)
	sort.Slice(vs, func(i, j int) bool {
		return st.Dict.MustDecode(vs[i]).String() < st.Dict.MustDecode(vs[j]).String()
	})
	return vs
}
