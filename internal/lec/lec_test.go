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
func paperFeatures(t *testing.T) (*paperexample.Example, []*partial.Match, []*Feature, []int) {
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
	features, featureOf := Compute(pms)
	return ex, pms, features, featureOf
}

// TestExample5And6: the 8 partial matches collapse into 7 LECs; PM1_2 and
// PM2_2 share a feature (Example 5), and the features carry the signs of
// Example 6.
func TestExample5And6Features(t *testing.T) {
	_, pms, features, featureOf := paperFeatures(t)
	if len(features) != 7 {
		t.Fatalf("got %d LEC features, want 7 (Example 5)", len(features))
	}
	// Find the feature with two member PMs; it must be in F2 with sign
	// 11010 (paper order) = bits v1,v2,v4.
	var shared *Feature
	for _, f := range features {
		if len(f.PMs) == 2 {
			if shared != nil {
				t.Fatal("more than one shared feature")
			}
			shared = f
		}
	}
	if shared == nil {
		t.Fatal("no feature with two partial matches (Example 5 expects [PM1_2] = [PM2_2])")
	}
	if shared.Frag != 1 {
		t.Errorf("shared feature in fragment %d, want F2", shared.Frag+1)
	}
	wantSign := uint64(1)<<0 | uint64(1)<<1 | uint64(1)<<3 // v1, v2, v4
	if shared.Sign != wantSign {
		t.Errorf("shared feature sign = %b, want %b", shared.Sign, wantSign)
	}
	// featureOf is consistent.
	for i := range pms {
		found := false
		for _, p := range features[featureOf[i]].PMs {
			if p == i {
				found = true
			}
		}
		if !found {
			t.Errorf("featureOf[%d] inconsistent", i)
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
	_, _, features, _ := paperFeatures(t)
	groups := map[uint64]int{}
	for _, f := range features {
		groups[f.Sign]++
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

// TestJoinableDefinition9 exercises each condition on the running example.
func TestJoinableDefinition9(t *testing.T) {
	ex, pms, features, featureOf := paperFeatures(t)
	byVec := func(want [5]int) *Feature {
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
				return features[featureOf[i]]
			}
		}
		t.Fatalf("PM %v not found", want)
		return nil
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
	_, _, features, _ := paperFeatures(t)
	for i, a := range features {
		for j, b := range features {
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
	ex, _, features, _ := paperFeatures(t)
	c := &closure{q: ex.Query, features: features}
	c.buildIndex()
	w := &walker{c: c, full: fullSign(len(ex.Query.Vertices))}
	for i, a := range features {
		for j, b := range features {
			if !w.start(i) {
				t.Fatalf("feature %d contradicts itself", i)
			}
			s := w.next
			w.next = state{}
			if got, want := w.step(&s, j), Joinable(a, b); got != want {
				t.Errorf("step(%d, %d) = %v, Definition 9 says %v", i, j, got, want)
			}
		}
	}
}

// TestPrunePaperExample: Algorithm 2 filters out PM2_3 (Section IV-C) and
// keeps everything else, as every other partial match participates in a
// complete match (Example 8 groups).
func TestPrunePaperExample(t *testing.T) {
	ex, pms, features, featureOf := paperFeatures(t)
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
	ex, pms, features, featureOf := paperFeatures(t)
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
		if want := vec != [5]int{14, 13, 0, 17, 0}; res.Live[featureOf[i]] != want {
			t.Errorf("PM %v: live %v, want %v", vec, res.Live[featureOf[i]], want)
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

// chainFeatures builds, over a five-vertex path query, k features of each
// of five kinds whose closure has about 6k² states: A_j and B_j share the
// crossing edge a_j→h1, every B_j joins every C_l over h1→h2, C_l joins
// D_l joins E_l, and only A+B+C+D+E covers the query.
func chainFeatures(k int) ([]*Feature, *query.Graph) {
	d := rdf.NewDictionary()
	v := func(i int) query.Node { return query.Var(fmt.Sprint("x", i)) }
	b := query.NewBuilder(d)
	for i := 0; i < 4; i++ {
		b.Triple(v(i), query.IRI("p"), v(i+1))
	}
	q := b.MustBuild()
	const h1, h2, tail = 1, 2, 3
	edge := func(qe, s, o int) partial.CrossEdge {
		return partial.CrossEdge{QEdge: qe, S: rdf.TermID(s), O: rdf.TermID(o)}
	}
	kinds := make([][]*Feature, 5)
	for j := 0; j < k; j++ {
		a, c := 100+j, 100+k+j
		for kind, ms := range [][]partial.CrossEdge{
			{edge(0, a, h1)},
			{edge(0, a, h1), edge(1, h1, h2)},
			{edge(1, h1, h2), edge(2, h2, c)},
			{edge(2, h2, c), edge(3, c, tail)},
			{edge(3, c, tail)},
		} {
			sign := uint64(1) << uint(q.Edges[0].From)
			if kind > 0 {
				sign = uint64(1) << uint(q.Edges[kind-1].To)
			}
			kinds[kind] = append(kinds[kind], &Feature{Frag: kind, Mappings: ms, Sign: sign})
		}
	}
	var features []*Feature
	for _, fs := range kinds {
		features = append(features, fs...)
	}
	return features, q
}

// TestPruneCancel: the walk polls its cancel hook, so a canceled query
// stops pruning within a few hundred expansions instead of walking the
// whole closure.
func TestPruneCancel(t *testing.T) {
	features, q := chainFeatures(50)
	full := Prune(features, q)
	if full.States < 10000 {
		t.Fatalf("closure too small to test cancellation: %+v", full.States)
	}
	for i, r := range full.Retained {
		if !r {
			t.Fatalf("feature %d pruned, every chain feature completes", i)
		}
	}
	polls := 0
	got := Walk(features, q, false, nil, func() bool { polls++; return polls == 2 }, nil)
	if polls != 2 || got.States*10 >= full.States {
		t.Errorf("canceled on poll 2 of %d: walked %d of %d states", polls, got.States, full.States)
	}
	for i, r := range got.Retained {
		if !r {
			t.Fatalf("canceled prune dropped feature %d; an unfinished walk must retain everything", i)
		}
	}
}

// collect walks features like Walk, with a sink per chunk that records
// the member sets it is handed. It returns them sorted — the chunks of a
// pooled walk hand theirs over in whatever order they run — and checks
// the verdict against them: a finished walk retains exactly the members
// of the sets it completed.
func collect(t *testing.T, features []*Feature, q *query.Graph, allPairs bool, p *pool.Pool, cancel func() bool) (PruneResult, [][]int) {
	t.Helper()
	var mu sync.Mutex
	var sets [][]int
	res := Walk(features, q, allPairs, p, cancel, func() Sink {
		return func(members []int) bool {
			mu.Lock()
			defer mu.Unlock()
			sets = append(sets, slices.Clone(members))
			return true
		}
	})
	slices.SortFunc(sets, slices.Compare)
	if res.Finished {
		members := make([]bool, len(features))
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
	features, q := chainFeatures(12)
	features = append(features, &Feature{Frag: 9, Sign: 1, Mappings: []partial.CrossEdge{{QEdge: 0, S: 7, O: 8}}}) // joins nothing: pruned
	seq, seqSets := collect(t, features, q, false, nil, nil)
	if !seq.Finished || len(seqSets) == 0 || seq.Retained[len(features)-1] {
		t.Fatalf("sequential oracle: finished %v, %d combinations, stray retained %v", seq.Finished, len(seqSets), seq.Retained[len(features)-1])
	}
	for i := 1; i < len(seqSets); i++ {
		if slices.Equal(seqSets[i-1], seqSets[i]) {
			t.Fatalf("member set %v completed twice", seqSets[i])
		}
	}
	for _, width := range []int{2, 3, 8} {
		p := pool.New(width)
		if got, sets := collect(t, features, q, false, p, nil); !reflect.DeepEqual(got, seq) || !reflect.DeepEqual(sets, seqSets) {
			t.Errorf("width %d: attempts %d states %d combos %d, sequential %d %d %d", width,
				got.Attempts, got.States, len(sets), seq.Attempts, seq.States, len(seqSets))
		}
		got, sets := collect(t, features, q, false, p, func() bool { return true })
		if got.Finished || len(sets) != 0 || slices.Contains(got.Retained, false) {
			t.Errorf("width %d canceled: finished %v, %d combinations, something pruned %v", width,
				got.Finished, len(sets), slices.Contains(got.Retained, false))
		}
		got = Walk(features, q, false, p, nil, func() Sink { return func([]int) bool { return false } })
		if got.Finished || slices.Contains(got.Retained, false) {
			t.Errorf("width %d stopped by its sink: finished %v, something pruned %v", width, got.Finished, slices.Contains(got.Retained, false))
		}
	}
}

// fuzzQueries are the query graphs FuzzClosureIndex draws from: a path, a
// triangle and a pair of parallel edges.
func fuzzQueries() []*query.Graph {
	var out []*query.Graph
	for _, shape := range [][][2]int{{{0, 1}, {1, 2}, {2, 3}}, {{0, 1}, {1, 2}, {2, 0}}, {{0, 1}, {0, 1}, {1, 2}}} {
		b := query.NewBuilder(rdf.NewDictionary())
		for i, e := range shape {
			b.Triple(query.Var(fmt.Sprint("v", e[0])), query.IRI(fmt.Sprint("p", i)), query.Var(fmt.Sprint("v", e[1])))
		}
		out = append(out, b.MustBuild())
	}
	return out
}

// referenceSemijoin is the semijoin by search: a mapping is dead for a
// holder when no feature holds it with its sign covering the mapping's
// other endpoint, and a feature is live when none of its mappings is dead.
// The sample is drawn per mapping from its query edge and data ends
// alone, once for every holder on either side; per fragment, the distinct
// mappings are counted with their sampled and sampled-dead ones.
func referenceSemijoin(items []*Feature, q *query.Graph) Semijoin {
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
			dead := !slices.ContainsFunc(items, func(g *Feature) bool {
				return g.Sign>>uint(other)&1 == 1 && slices.Contains(g.Mappings, m)
			})
			sampled := inSample(mapping{int32(m.QEdge), m.S, m.O})
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
// walk's draw does too. Features are drawn as partial matches make them
// (Definition 5): the mapped query edges are exactly those with one
// endpoint in Sign — the side-split index needs no more, the semijoin
// needs them all.
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
		// first), each mapped query edge's label (its high nibble, one bit
		// an edge), which of two data vertices each query vertex is bound
		// to (low nibble of the second) and the fragment (its high bits).
		var items []*Feature
		for ; len(data) >= 2; data = data[2:] {
			it := &Feature{Frag: int(data[1] >> 4 & 3), Sign: uint64(data[0]) & fullSign(len(q.Vertices))}
			bound := func(v int) rdf.TermID { return rdf.TermID(10*(v+1) + int(data[1]>>uint(v)&1)) }
			for e, qe := range q.Edges {
				if it.Sign>>uint(qe.From)&1 != it.Sign>>uint(qe.To)&1 {
					it.Mappings = append(it.Mappings, partial.CrossEdge{QEdge: e, S: bound(qe.From), P: rdf.TermID(1 + data[0]>>(4+uint(e))&1), O: bound(qe.To)})
				}
			}
			if len(it.Mappings) > 0 {
				items = append(items, it)
			}
		}
		ref := referenceSemijoin(items, q)
		live := ref.Live
		walk := func(allPairs bool, p *pool.Pool) map[string]bool {
			sets := map[string]bool{}
			res, completed := collect(t, items, q, allPairs, p, nil)
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

// referenceCompute is Algorithm 1 by linear search: features in
// first-seen order, each with its first match's fragment, g and sign,
// built by hand (so a walk over them interns their mappings itself).
func referenceCompute(pms []*partial.Match) ([]*Feature, []int) {
	var features []*Feature
	featureOf := make([]int, len(pms))
	for i, pm := range pms {
		fi := slices.IndexFunc(features, func(f *Feature) bool {
			return f.Frag == pm.Frag && slices.Equal(f.Mappings, pm.Crossing)
		})
		if fi < 0 {
			fi = len(features)
			features = append(features, &Feature{Frag: pm.Frag, Mappings: pm.Crossing, Sign: pm.Sign})
		}
		features[fi].PMs = append(features[fi].PMs, i)
		featureOf[i] = fi
	}
	return features, featureOf
}

// sameFeatures compares the exported fields of two feature lists.
func sameFeatures(a, b []*Feature) bool {
	return slices.EqualFunc(a, b, func(x, y *Feature) bool {
		return x.Frag == y.Frag && x.Sign == y.Sign && slices.Equal(x.Mappings, y.Mappings) && slices.Equal(x.PMs, y.PMs)
	})
}

// FuzzFeatureIDs: grouping and walking by interned mapping ids is exact.
// On random partial matches lec.Compute's features and featureOf equal
// the linear-search reference's, and a walk over them — ids handed over from
// Compute — retains, completes, attempts and explores exactly what the
// walk over the reference's hand-built features, interned by the walk,
// does.
// Matches are drawn like FuzzClosureIndex's items, with any subset of
// their one-sided edges crossing (both walks read the same features, so
// Definition 5 need not hold), a fragment of four and small value
// domains, so that equal (fragment, g) pairs are common.
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
		// the first), which query edges with exactly one internal endpoint
		// are crossing (its high nibble); which of two data vertices each
		// query vertex is bound to (low nibble of the second), the
		// fragment (bits 4-5) and the crossing edges' label (bit 6).
		var pms []*partial.Match
		for ; len(data) >= 2; data = data[2:] {
			pm := &partial.Match{Frag: int(data[1] >> 4 & 3), Sign: uint64(data[0]) & fullSign(len(q.Vertices))}
			bound := func(v int) rdf.TermID { return rdf.TermID(10*(v+1) + int(data[1]>>uint(v)&1)) }
			for e, qe := range q.Edges {
				if data[0]>>(4+uint(e))&1 == 1 && pm.Sign>>uint(qe.From)&1 != pm.Sign>>uint(qe.To)&1 {
					pm.Crossing = append(pm.Crossing, partial.CrossEdge{QEdge: e, S: bound(qe.From), P: rdf.TermID(1 + data[1]>>6&1), O: bound(qe.To)})
				}
			}
			if len(pm.Crossing) > 0 {
				pms = append(pms, pm)
			}
		}
		features, featureOf := Compute(pms)
		refFeatures, refOf := referenceCompute(pms)
		if !sameFeatures(features, refFeatures) || !slices.Equal(featureOf, refOf) {
			t.Fatalf("Compute grouped %d matches into %d features (featureOf %v), the reference into %d (%v)",
				len(pms), len(features), featureOf, len(refFeatures), refOf)
		}
		for _, allPairs := range []bool{false, true} {
			got, gotSets := collect(t, features, q, allPairs, nil, nil)
			want, wantSets := collect(t, refFeatures, q, allPairs, nil, nil)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSets, wantSets) {
				t.Errorf("all pairs %v: walk over interned features %+v completing %v, over the reference %+v completing %v", allPairs, got, gotSets, want, wantSets)
			}
		}
	})
}
