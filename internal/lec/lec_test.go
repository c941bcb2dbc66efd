package lec

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// paperFeatures computes all partial matches and features for the running
// example, returning them with the fixture.
func paperFeatures(t *testing.T) (*paperexample.Example, []*partial.Match, *Features) {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	var pms []*partial.Match
	for _, f := range d.Fragments {
		ms, err := partial.Compute(f, ex.Query, partial.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pms = append(pms, ms...)
	}
	if len(pms) != 8 {
		t.Fatalf("expected the 8 partial matches of Fig. 3, got %d", len(pms))
	}
	return ex, pms, Group(ex.Query, pms)
}

// refFeature is a LEC feature as Definition 8 states it: the fragment,
// the sign and the function g as crossing edges, with its members.
type refFeature struct {
	Frag     int
	Sign     uint64
	Mappings []partial.CrossEdge
	PMs      []int
}

// refFeatures reads fs back as Definition 8's features, each g derived
// from its first member by the rule.
func refFeatures(q *query.Graph, pms []*partial.Match, fs *Features) []refFeature {
	out := make([]refFeature, fs.Len())
	for i := range out {
		members := fs.PMs(i)
		out[i] = refFeature{Frag: fs.Frag(i), Sign: fs.Sign[i], Mappings: partial.AppendCrossing(nil, q, pms[members[0]])}
		for _, j := range members {
			out[i].PMs = append(out[i].PMs, int(j))
		}
	}
	return out
}

// TestExample5And6: the 8 partial matches collapse into 7 LECs; PM1_2 and
// PM2_2 share a feature (Example 5), and the features carry the signs of
// Example 6.
func TestExample5And6Features(t *testing.T) {
	_, pms, fs := paperFeatures(t)
	if fs.Len() != 7 {
		t.Fatalf("got %d LEC features, want 7 (Example 5)", fs.Len())
	}
	// Find the feature with two member PMs; it must be in F2 with sign
	// 11010 (paper order) = bits v1,v2,v4.
	shared := -1
	for i := range fs.Len() {
		if len(fs.PMs(i)) == 2 {
			if shared >= 0 {
				t.Fatal("more than one shared feature")
			}
			shared = i
		}
	}
	if shared < 0 {
		t.Fatal("no feature with two partial matches (Example 5 expects [PM1_2] = [PM2_2])")
	}
	if fs.Frag(shared) != 1 {
		t.Errorf("shared feature in fragment %d, want F2", fs.Frag(shared)+1)
	}
	wantSign := uint64(1)<<0 | uint64(1)<<1 | uint64(1)<<3 // v1, v2, v4
	if fs.Sign[shared] != wantSign {
		t.Errorf("shared feature sign = %b, want %b", fs.Sign[shared], wantSign)
	}
	// FeatureOf is consistent.
	for i := range pms {
		if !slices.Contains(fs.PMs(int(fs.FeatureOf[i])), int32(i)) {
			t.Errorf("FeatureOf[%d] inconsistent", i)
		}
	}
}

// TestExample7Groups: the 7 features form LECSign groups. The paper's
// Example 7 presents five groups, keeping LF(PM3_1) and LF(PM2_3) apart
// even though both carry sign 01010 — Definition 10 permits non-maximal
// groupings. We group maximally (same sign ⇒ same group), which Theorem 5
// proves safe and which yields a strictly smaller join space: four groups,
// three pairs ({PM1_1,PM2_1}, {PM3_1,PM2_3}, {PM1_2/PM2_2, PM1_3}) and the
// singleton {PM3_2}.
func TestExample7Groups(t *testing.T) {
	_, _, fs := paperFeatures(t)
	groups := map[uint64]int{}
	for _, sign := range fs.Sign {
		groups[sign]++
	}
	if len(groups) != 4 {
		t.Fatalf("got %d groups, want 4 (maximal grouping of Example 7's signs)", len(groups))
	}
	sizes := map[int]int{}
	for _, n := range groups {
		sizes[n]++
	}
	if sizes[2] != 3 || sizes[1] != 1 {
		t.Errorf("group size histogram = %v, want three pairs and one singleton", sizes)
	}
}

// Joinable is Definition 9 written out independently of walker.step, on
// two original (un-joined) features: different fragments, at least one
// shared crossing-edge mapping, no query edge mapped to two different
// crossing edges, and disjoint LECSigns.
func Joinable(a, b refFeature) bool {
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

// TestJoinableDefinition9 exercises each condition on the running example.
func TestJoinableDefinition9(t *testing.T) {
	ex, pms, fs := paperFeatures(t)
	refs := refFeatures(ex.Query, pms, fs)
	byVec := func(want [5]int) refFeature {
		for i, pm := range pms {
			var got [5]int
			rev := make(map[rdf.TermID]int)
			for n, id := range ex.V {
				rev[id] = n
			}
			for j, id := range pm.Vec {
				if id != rdf.NoTerm {
					got[j] = rev[id]
				}
			}
			if got == want {
				return refs[fs.FeatureOf[i]]
			}
		}
		t.Fatalf("PM %v not found", want)
		return refFeature{}
	}
	pm11 := byVec([5]int{6, 0, 1, 0, 3})
	pm12 := byVec([5]int{6, 8, 1, 9, 0})
	pm21 := byVec([5]int{12, 0, 1, 0, 3})
	pm13 := byVec([5]int{12, 13, 1, 17, 0})
	pm31 := byVec([5]int{6, 5, 0, 4, 0})
	pm32 := byVec([5]int{6, 5, 1, 0, 0})
	pm23 := byVec([5]int{14, 13, 0, 17, 0})

	if !Joinable(pm11, pm12) {
		t.Error("LF(PM1_1) and LF(PM1_2) must be joinable (shared 001→006)")
	}
	if !Joinable(pm21, pm13) {
		t.Error("LF(PM2_1) and LF(PM1_3) must be joinable (shared 001→012)")
	}
	if !Joinable(pm31, pm32) {
		t.Error("LF(PM3_1) and LF(PM3_2) must be joinable (shared 006→005)")
	}
	if Joinable(pm11, pm21) {
		t.Error("same-fragment features must not be joinable (condition 1)")
	}
	if Joinable(pm11, pm13) {
		t.Error("001→006 vs 001→012 map the same query edge to different crossing edges (condition 3)")
	}
	if Joinable(pm12, pm23) {
		t.Error("LF(PM1_2) and LF(PM2_3): no shared crossing edge")
	}
	if Joinable(pm11, pm11) {
		t.Error("a feature is not joinable with itself")
	}
}

// TestTheorem5SameSignNotJoinable: features with equal signs never join.
func TestTheorem5(t *testing.T) {
	ex, pms, fs := paperFeatures(t)
	refs := refFeatures(ex.Query, pms, fs)
	for i, a := range refs {
		for j, b := range refs {
			if i != j && a.Sign == b.Sign && Joinable(a, b) {
				t.Errorf("features %d and %d share sign %b yet are joinable", i, j, a.Sign)
			}
		}
	}
}

// TestStepMatchesDefinition9: on every ordered pair of the running
// example's features the closure's one join step accepts exactly the pairs
// the reference Joinable accepts.
func TestStepMatchesDefinition9(t *testing.T) {
	ex, pms, fs := paperFeatures(t)
	refs := refFeatures(ex.Query, pms, fs)
	c := &closure{q: ex.Query, fs: fs}
	c.buildIndex()
	empty := newLevels(ex.Query)[0].state
	for i, a := range refs {
		for j, b := range refs {
			var s, next state
			if !c.step(&empty, i, &s) {
				t.Fatalf("feature %d contradicts itself", i)
			}
			if got, want := c.step(&s, j, &next), Joinable(a, b); got != want {
				t.Errorf("step(%d, %d) = %v, Definition 9 says %v", i, j, got, want)
			}
		}
	}
}

// TestPrunePaperExample: Algorithm 2 filters out PM2_3 (Section IV-C) and
// keeps everything else, as every other partial match participates in a
// complete match (Example 8 groups). It runs through Compute and Prune,
// the adapter the benchmark module's layer drive calls, and Compute's
// features are Group's.
func TestPrunePaperExample(t *testing.T) {
	ex, pms, fs := paperFeatures(t)
	features, featureOf := Compute(pms)
	if len(features) != fs.Len() || !slices.EqualFunc(featureOf, fs.FeatureOf, func(a int, b int32) bool { return a == int(b) }) {
		t.Fatalf("Compute: %d features, featureOf %v; Group: %d, %v", len(features), featureOf, fs.Len(), fs.FeatureOf)
	}
	res := Prune(features, ex.Query)
	rev := make(map[rdf.TermID]int)
	for n, id := range ex.V {
		rev[id] = n
	}
	for i, pm := range pms {
		var vec [5]int
		for j, id := range pm.Vec {
			if id != rdf.NoTerm {
				vec[j] = rev[id]
			}
		}
		retained := res.Retained[featureOf[i]]
		if vec == [5]int{14, 13, 0, 17, 0} {
			if retained {
				t.Error("PM2_3 should be pruned (Section IV-C)")
			}
			continue
		}
		if !retained {
			t.Errorf("PM %v should be retained", vec)
		}
	}
}

// TestSemijoinPaperExample: of Fig. 3's seven features one round of the
// semijoin kills exactly LF(PM2_3), whose crossing edge 014→013 no other
// fragment holds — the feature Algorithm 2 prunes — and the three sites
// report 3, 2 and 2 distinct mappings.
func TestSemijoinPaperExample(t *testing.T) {
	ex, pms, fs := paperFeatures(t)
	res := Walk(fs, ex.Query, false, nil, nil, nil)
	rev := make(map[rdf.TermID]int)
	for n, id := range ex.V {
		rev[id] = n
	}
	for i, pm := range pms {
		var vec [5]int
		for j, id := range pm.Vec {
			if id != rdf.NoTerm {
				vec[j] = rev[id]
			}
		}
		if want := vec != [5]int{14, 13, 0, 17, 0}; res.Live[fs.FeatureOf[i]] != want {
			t.Errorf("PM %v: live %v, want %v", vec, res.Live[fs.FeatureOf[i]], want)
		}
	}
	if !slices.Equal(res.Mappings, []int{3, 2, 2}) {
		t.Errorf("distinct mappings per site %v, want [3 2 2]", res.Mappings)
	}
}

func TestPruneEmpty(t *testing.T) {
	ex := paperexample.New()
	res := Prune(nil, ex.Query)
	if len(res.Retained) != 0 || res.States != 0 {
		t.Errorf("unexpected result on empty input: %+v", res)
	}
}

// chainFeatures builds, over a five-vertex path query, the partial
// matches of k features of each of five kinds whose closure has about 6k²
// states: A_j and B_j share the crossing edge a_j→h1, every B_j joins
// every C_l over h1→h2, C_l joins D_l joins E_l, and only A+B+C+D+E
// covers the query. Each kind is a fragment, each match one internal
// vertex and its bound neighbours.
func chainFeatures(k int) ([]*partial.Match, *query.Graph) {
	d := rdf.NewDictionary()
	v := func(i int) query.Node { return query.Var(fmt.Sprint("x", i)) }
	b := query.NewBuilder(d)
	for i := 0; i < 4; i++ {
		b.Triple(v(i), query.IRI("p"), v(i+1))
	}
	q := b.MustBuild()
	const h1, h2, tail = 1, 2, 3
	kinds := make([][]*partial.Match, 5)
	for j := 0; j < k; j++ {
		a, c := rdf.TermID(100+j), rdf.TermID(100+k+j)
		for kind, vec := range [][]rdf.TermID{
			{a, h1, 0, 0, 0},
			{a, h1, h2, 0, 0},
			{0, h1, h2, c, 0},
			{0, 0, h2, c, tail},
			{0, 0, 0, c, tail},
		} {
			kinds[kind] = append(kinds[kind], &partial.Match{Frag: kind, Vec: vec, Sign: 1 << uint(kind)})
		}
	}
	return slices.Concat(kinds...), q
}

// TestPruneCancel: the walk polls its cancel hook, so a canceled query
// stops pruning within a few hundred expansions instead of walking the
// whole closure.
func TestPruneCancel(t *testing.T) {
	pms, q := chainFeatures(50)
	fs := Group(q, pms)
	full := Walk(fs, q, false, nil, nil, nil)
	if full.States < 10000 {
		t.Fatalf("closure too small to test cancellation: %+v", full.States)
	}
	for i, r := range full.Retained {
		if !r {
			t.Fatalf("feature %d pruned, every chain feature completes", i)
		}
	}
	polls := 0
	got := Walk(fs, q, false, nil, func() bool { polls++; return polls == 2 }, nil)
	if polls != 2 || got.States*10 >= full.States {
		t.Errorf("canceled on poll 2 of %d: walked %d of %d states", polls, got.States, full.States)
	}
	for i, r := range got.Retained {
		if !r {
			t.Fatalf("canceled prune dropped feature %d; an unfinished walk must retain everything", i)
		}
	}
}

// TestWalkSpansSixtyFourVertices: on the largest query a sign can hold, a
// 64-vertex chain whose every feature covers one vertex, each complete
// combination has 64 members and so fills the deepest of the walk's
// |V|+1 levels. Vertices 30 to 32 have a second binding, which vertices
// 29 to 33 have a second feature to agree with, so exactly two
// combinations complete, and the index walk completes and retains what
// the all-pairs walk does.
func TestWalkSpansSixtyFourVertices(t *testing.T) {
	const n = query.MaxSize
	b := query.NewBuilder(rdf.NewDictionary())
	for i := range n - 1 {
		b.Triple(query.Var(fmt.Sprint("x", i)), query.IRI("p"), query.Var(fmt.Sprint("x", i+1)))
	}
	q := b.MustBuild()
	if got := len(newLevels(q)); got != n+1 || fullSign(len(q.Vertices)) != ^uint64(0) {
		t.Fatalf("%d levels, full sign %b; want %d levels and every bit", got, fullSign(len(q.Vertices)), n+1)
	}
	value := func(v int, alt bool) rdf.TermID {
		if alt && v >= 30 && v <= 32 {
			return rdf.TermID(1000 + v)
		}
		return rdf.TermID(100 + v)
	}
	var pms []*partial.Match
	for v := range n {
		for _, alt := range []bool{false, true} {
			if alt && (v < 29 || v > 33) {
				continue
			}
			vec := make([]rdf.TermID, n)
			for _, u := range []int{v - 1, v, v + 1} {
				if u >= 0 && u < n {
					vec[u] = value(u, alt)
				}
			}
			pms = append(pms, &partial.Match{Frag: v, Vec: vec, Sign: 1 << uint(v)})
		}
	}
	fs := Group(q, pms)
	res, sets := collect(t, fs, q, false, nil, nil)
	all, allSets := collect(t, fs, q, true, nil, nil)
	if !res.Finished || len(sets) != 2 || !reflect.DeepEqual(sets, allSets) || !slices.Equal(res.Retained, all.Retained) {
		t.Fatalf("index walk completed %d sets (finished %v), all-pairs %d; retained equal %v",
			len(sets), res.Finished, len(allSets), slices.Equal(res.Retained, all.Retained))
	}
	for _, set := range sets {
		if len(set) != n {
			t.Errorf("completed %d members, want %d", len(set), n)
		}
	}
	if slices.Contains(res.Retained, false) {
		t.Error("a chain feature was pruned; every one completes")
	}
}

// collect walks fs like Walk, with a sink per chunk that records the
// member sets it is handed. It returns them sorted — the chunks of a
// pooled walk hand theirs over in whatever order they run — and checks
// the verdict against them: a finished walk retains exactly the members
// of the sets it completed.
func collect(t *testing.T, fs *Features, q *query.Graph, allPairs bool, p *pool.Pool, cancel func() bool) (PruneResult, [][]int) {
	t.Helper()
	var mu sync.Mutex
	var sets [][]int
	res := Walk(fs, q, allPairs, p, cancel, func() Sink {
		return func(members []int) bool {
			mu.Lock()
			defer mu.Unlock()
			sets = append(sets, slices.Clone(members))
			return true
		}
	})
	slices.SortFunc(sets, slices.Compare)
	if res.Finished {
		members := make([]bool, fs.Len())
		for _, set := range sets {
			for _, m := range set {
				members[m] = true
			}
		}
		if !slices.Equal(members, res.Retained) {
			t.Errorf("retained %v, members of the completed sets %v", res.Retained, members)
		}
	}
	return res, sets
}

// TestWalkWidthInvariance: chunking roots over a pool changes nothing a
// caller can see — verdicts, counters and the member sets its sinks are
// handed, each once — and a canceled pooled walk, or one whose sink
// declines, still retains everything; a canceled one completes nothing.
func TestWalkWidthInvariance(t *testing.T) {
	pms, q := chainFeatures(12)
	pms = append(pms, &partial.Match{Frag: 9, Sign: 1, Vec: []rdf.TermID{7, 8, 0, 0, 0}}) // joins nothing: pruned
	fs := Group(q, pms)
	seq, seqSets := collect(t, fs, q, false, nil, nil)
	if !seq.Finished || len(seqSets) == 0 || seq.Retained[fs.Len()-1] {
		t.Fatalf("sequential oracle: finished %v, %d combinations, stray retained %v", seq.Finished, len(seqSets), seq.Retained[fs.Len()-1])
	}
	for i := 1; i < len(seqSets); i++ {
		if slices.Equal(seqSets[i-1], seqSets[i]) {
			t.Fatalf("member set %v completed twice", seqSets[i])
		}
	}
	for _, width := range []int{2, 3, 8} {
		p := pool.New(width)
		if got, sets := collect(t, fs, q, false, p, nil); !reflect.DeepEqual(got, seq) || !reflect.DeepEqual(sets, seqSets) {
			t.Errorf("width %d: attempts %d states %d combos %d, sequential %d %d %d", width,
				got.Attempts, got.States, len(sets), seq.Attempts, seq.States, len(seqSets))
		}
		got, sets := collect(t, fs, q, false, p, func() bool { return true })
		if got.Finished || len(sets) != 0 || slices.Contains(got.Retained, false) {
			t.Errorf("width %d canceled: finished %v, %d combinations, something pruned %v", width,
				got.Finished, len(sets), slices.Contains(got.Retained, false))
		}
		got = Walk(fs, q, false, p, nil, func() Sink { return func([]int) bool { return false } })
		if got.Finished || slices.Contains(got.Retained, false) {
			t.Errorf("width %d stopped by its sink: finished %v, something pruned %v", width, got.Finished, slices.Contains(got.Retained, false))
		}
	}
}

// fuzzQueries are the query graphs the fuzz targets draw from: a path, a
// triangle and a pair of parallel edges, every edge labelled by its own
// variable so that a match picks its crossing edges' labels.
func fuzzQueries() []*query.Graph {
	var out []*query.Graph
	for _, shape := range [][][2]int{{{0, 1}, {1, 2}, {2, 3}}, {{0, 1}, {1, 2}, {2, 0}}, {{0, 1}, {0, 1}, {1, 2}}} {
		b := query.NewBuilder(rdf.NewDictionary())
		for i, e := range shape {
			b.Triple(query.Var(fmt.Sprint("v", e[0])), query.Var(fmt.Sprint("p", i)), query.Var(fmt.Sprint("v", e[1])))
		}
		out = append(out, b.MustBuild())
	}
	return out
}

// fuzzMatch is a partial match of q: vertex v bound to one of two data
// vertices by bit v of values — or NULL when it is neither internal nor
// in bound — and every edge label variable bound to label. The rule
// then makes every edge with both ends bound and one internal crossing.
func fuzzMatch(q *query.Graph, frag int, sign, bound uint64, values byte, label rdf.TermID) *partial.Match {
	m := &partial.Match{Frag: frag, Sign: sign & fullSign(len(q.Vertices)), Vec: make([]rdf.TermID, len(q.Vertices)), EdgeVars: make([]rdf.TermID, len(q.Vars))}
	for v := range m.Vec {
		if (m.Sign|bound)>>uint(v)&1 == 1 {
			m.Vec[v] = rdf.TermID(10*(v+1) + int(values>>uint(v)&1))
		}
	}
	for _, e := range q.Edges {
		m.EdgeVars[e.LabelVar] = label
	}
	return m
}

// referenceSemijoin is the semijoin by search over Definition 8's
// features: a mapping is dead for a holder when no feature holds it with
// its sign covering the mapping's other endpoint, and a feature is live
// when none of its mappings is dead. The sample is drawn per mapping from
// its query edge and data ends alone, once for every holder on either
// side; per fragment, the distinct mappings are counted with their
// sampled and sampled-dead ones.
func referenceSemijoin(items []refFeature, q *query.Graph) Semijoin {
	var sj Semijoin
	seen := map[[2]any]bool{} // (fragment, mapping)
	for i, f := range items {
		sj.Live = append(sj.Live, true)
		sj.SampleDead = append(sj.SampleDead, false)
		sj.Unsampled = append(sj.Unsampled, 0)
		for f.Frag >= len(sj.Mappings) {
			sj.Mappings, sj.Sampled, sj.SampledDead = append(sj.Mappings, 0), append(sj.Sampled, 0), append(sj.SampledDead, 0)
		}
		for _, m := range f.Mappings {
			e := q.Edges[m.QEdge]
			other := e.To
			if f.Sign>>uint(e.From)&1 == 0 {
				other = e.From
			}
			dead := !slices.ContainsFunc(items, func(g refFeature) bool {
				return g.Sign>>uint(other)&1 == 1 && slices.Contains(g.Mappings, m)
			})
			sampled := inSample(mapping{int32(m.QEdge), m.S, m.P, m.O})
			if dead {
				sj.Live[i] = false
			}
			if !sampled {
				sj.Unsampled[i]++
			} else if dead {
				sj.SampleDead[i] = true
			}
			if k := [2]any{f.Frag, m}; !seen[k] {
				seen[k] = true
				sj.Mappings[f.Frag]++
				if sampled {
					sj.Sampled[f.Frag]++
					if dead {
						sj.SampledDead[f.Frag]++
					}
				}
			}
		}
	}
	return sj
}

// sameSemijoin compares two verdicts field by field, a nil slice equal
// to an empty one: with no features the walk's are empty, the
// reference's nil.
func sameSemijoin(a, b Semijoin) bool {
	return slices.Equal(a.Live, b.Live) && slices.Equal(a.SampleDead, b.SampleDead) &&
		slices.Equal(a.Unsampled, b.Unsampled) && slices.Equal(a.Mappings, b.Mappings) &&
		slices.Equal(a.Sampled, b.Sampled) && slices.Equal(a.SampledDead, b.SampledDead)
}

// FuzzClosureIndex: on random small feature sets the walk that asks the
// side-split crossing-edge index for partners completes exactly the
// member sets the walk that tries every pair completes, sequentially and
// chunked; its semijoin, in full and on the sample, equals
// referenceSemijoin's, the sample's dead features are dead in full (the
// sample never kills a match the full semijoin keeps), and every feature
// either walk retains is live. The reference draws the sample from a
// mapping alone, once for both of its sides, so equal counts mean the
// walk's draw does too. Each item is a partial match with every vertex
// bound, walked as its own feature (Singletons): its mappings are
// exactly the query edges with one endpoint in Sign, as Definition 5
// makes them — the side-split index needs no more, the semijoin needs
// them all.
func FuzzClosureIndex(f *testing.F) {
	// A two- and a three-item cover of the path plus a near miss; the
	// triangle's three corners; the parallel edges' two halves.
	f.Add([]byte{0, 0x03, 0, 0x0c, 0, 0x01, 0, 0x06, 0, 0x08, 0, 0x0c, 0x04})
	f.Add([]byte{1, 0x01, 0, 0x02, 0, 0x04, 0, 0x12, 0x02})
	f.Add([]byte{2, 0x01, 0, 0x06, 0, 0x31, 0x01})
	// The path's sampled mapping v1→v2 = 21→30: held from one side (dead
	// in the sample) by one fragment, from both by two, and beside an
	// unsampled dead mapping.
	f.Add([]byte{0, 0x03, 0x02})
	f.Add([]byte{0, 0x03, 0x02, 0x0c, 0x12})
	f.Add([]byte{0, 0x03, 0x02, 0x0c, 0x12, 0x03, 0x20})
	// No vertex internal, so no mapping and no item: an empty walk.
	f.Add([]byte{0, 0x00, 0x00})
	queries := fuzzQueries()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		q := queries[int(data[0])%len(queries)]
		data = data[1:]
		if len(data) > 48 {
			data = data[:48] // 24 items: AllPairs stays small
		}
		// Two bytes an item: which vertices are internal (low nibble of the
		// first), the label of its crossing edges (bit 4 of the first),
		// which of two data vertices each query vertex is bound to (low
		// nibble of the second) and the fragment (its high bits).
		var pms []*partial.Match
		for ; len(data) >= 2; data = data[2:] {
			pm := fuzzMatch(q, int(data[1]>>4&3), uint64(data[0]), ^uint64(0), data[1], rdf.TermID(1+data[0]>>4&1))
			if len(partial.AppendCrossing(nil, q, pm)) > 0 {
				pms = append(pms, pm)
			}
		}
		fs := Singletons(q, pms)
		ref := referenceSemijoin(refFeatures(q, pms, fs), q)
		live := ref.Live
		walk := func(allPairs bool, p *pool.Pool) map[string]bool {
			sets := map[string]bool{}
			res, completed := collect(t, fs, q, allPairs, p, nil)
			if !res.Finished {
				t.Fatal("uncanceled walk did not finish")
			}
			if !allPairs && !sameSemijoin(res.Semijoin, ref) {
				t.Errorf("semijoin %+v, reference %+v", res.Semijoin, ref)
			}
			for i, dead := range res.SampleDead {
				if dead && res.Live[i] {
					t.Errorf("feature %d is dead in the sample but live", i)
				}
			}
			for i, r := range res.Retained {
				if r && !live[i] {
					t.Errorf("all pairs %v: feature %d retained but dead", allPairs, i)
				}
			}
			for _, members := range completed {
				if sets[fmt.Sprint(members)] {
					t.Errorf("member set %v completed twice", members)
				}
				sets[fmt.Sprint(members)] = true
			}
			return sets
		}
		want := walk(true, nil)
		if got := walk(false, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("index walk completed %v, all-pairs walk %v", got, want)
		}
		if got := walk(false, pool.New(3)); !reflect.DeepEqual(got, want) {
			t.Errorf("chunked index walk completed %v, all-pairs walk %v", got, want)
		}
	})
}

// referenceGroup is Algorithm 1 by maps: each match's g derived by the
// rule, features keyed by (fragment, g) in first-seen order with their
// first match's sign, and mapping ids handed out in first-seen order.
func referenceGroup(q *query.Graph, pms []*partial.Match) (features []refFeature, featureOf []int32, ids [][]int32) {
	byKey, byMapping := map[string]int{}, map[partial.CrossEdge]int32{}
	for j, pm := range pms {
		g := partial.AppendCrossing(nil, q, pm)
		var tuple []int32
		for _, m := range g {
			id, ok := byMapping[m]
			if !ok {
				id = int32(len(byMapping))
				byMapping[m] = id
			}
			tuple = append(tuple, id)
		}
		k := fmt.Sprint(pm.Frag, g)
		fi, ok := byKey[k]
		if !ok {
			fi = len(features)
			byKey[k] = fi
			features = append(features, refFeature{Frag: pm.Frag, Sign: pm.Sign, Mappings: g})
			ids = append(ids, tuple)
		}
		features[fi].PMs = append(features[fi].PMs, j)
		featureOf = append(featureOf, int32(fi))
	}
	return features, featureOf, ids
}

// expand returns the match sets a walk's feature combinations stand for:
// one member of each feature, every choice.
func expand(fs *Features, sets [][]int) [][]int {
	var out [][]int
	for _, set := range sets {
		partial := [][]int{nil}
		for _, fi := range set {
			var next [][]int
			for _, p := range partial {
				for _, j := range fs.PMs(fi) {
					next = append(next, append(slices.Clone(p), int(j)))
				}
			}
			partial = next
		}
		for _, p := range partial {
			slices.Sort(p)
			out = append(out, p)
		}
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// FuzzFeatureIDs: grouping by interned mapping ids is exact. On random
// partial matches Group's columns — features in order with their
// fragments, signs, members and mapping ids, and FeatureOf — equal the
// map-based reference's, and a walk over them, expanded to matches,
// completes exactly the match sets, and retains exactly the matches, of
// the same walk over one singleton feature per match. Matches are drawn
// like FuzzClosureIndex's items with some vertices NULL, so that any
// subset of their one-sided edges cross (both walks read the same
// mappings, so Definition 5 need not hold beyond Theorem 1's equal
// signs), from a fragment of four and small value domains, so that equal
// (fragment, g) pairs are common.
func FuzzFeatureIDs(f *testing.F) {
	f.Add([]byte{0, 0x23, 0x00, 0x2c, 0x10, 0x23, 0x00, 0x56, 0x20, 0x48, 0x30, 0x2c, 0x14})
	f.Add([]byte{1, 0x51, 0x00, 0x32, 0x10, 0x64, 0x20, 0x32, 0x12, 0x51, 0x00})
	f.Add([]byte{2, 0x31, 0x00, 0x36, 0x10, 0x31, 0x01, 0x31, 0x41})
	queries := fuzzQueries()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		q := queries[int(data[0])%len(queries)]
		data = data[1:]
		if len(data) > 48 {
			data = data[:48] // 24 matches: the all-pairs walk stays small
		}
		// Two bytes a match: which vertices are internal (low nibble of
		// the first), which others are bound (its high nibble); which of
		// two data vertices each query vertex is bound to (low nibble of
		// the second), the fragment (bits 4-5) and the crossing edges'
		// label (bit 6).
		var pms []*partial.Match
		for ; len(data) >= 2; data = data[2:] {
			pm := fuzzMatch(q, int(data[1]>>4&3), uint64(data[0]), uint64(data[0]>>4), data[1], rdf.TermID(1+data[1]>>6&1))
			if len(partial.AppendCrossing(nil, q, pm)) > 0 {
				pms = append(pms, pm)
			}
		}
		fs := Group(q, pms)
		ref, refOf, refIDs := referenceGroup(q, pms)
		if got := refFeatures(q, pms, fs); !reflect.DeepEqual(got, ref) && !(len(got) == 0 && len(ref) == 0) || !slices.Equal(fs.FeatureOf, refOf) {
			t.Fatalf("Group made %d features of %d matches (FeatureOf %v), the reference %d (%v)", fs.Len(), len(pms), fs.FeatureOf, len(ref), refOf)
		}
		for i, want := range refIDs {
			if got := fs.ids(i); !slices.Equal(got, want) {
				t.Errorf("feature %d: mapping ids %v, the reference's %v", i, got, want)
			}
		}
		// A feature's sign is its first match's: Theorem 1 makes it every
		// member's for valid matches, and only then is the walk over
		// features the walk over matches.
		for j, pm := range pms {
			if pm.Sign != fs.Sign[fs.FeatureOf[j]] {
				return
			}
		}
		single := Singletons(q, pms)
		for _, allPairs := range []bool{false, true} {
			want, wantSets := collect(t, single, q, allPairs, nil, nil)
			got, gotSets := collect(t, fs, q, allPairs, nil, nil)
			if sets := expand(fs, gotSets); !reflect.DeepEqual(sets, wantSets) && !(len(sets) == 0 && len(wantSets) == 0) {
				t.Errorf("all pairs %v: the walk over features completes %v, over singletons %v", allPairs, sets, wantSets)
			}
			for j := range pms {
				if got.Retained[fs.FeatureOf[j]] != want.Retained[j] {
					t.Errorf("all pairs %v: match %d retained %v over features, %v over singletons", allPairs, j, got.Retained[fs.FeatureOf[j]], want.Retained[j])
				}
			}
		}
	})
}
