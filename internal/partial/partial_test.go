package partial

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// vecOf converts a Match vector to paper vertex numbers for comparison
// with Fig. 3 (0 = NULL).
func vecOf(ex *paperexample.Example, m *Match) [5]int {
	rev := make(map[rdf.TermID]int, len(ex.V))
	for n, id := range ex.V {
		rev[id] = n
	}
	var out [5]int
	for i, id := range m.Vec {
		if id != rdf.NoTerm {
			out[i] = rev[id]
		}
	}
	return out
}

func buildPaper(t *testing.T) (*paperexample.Example, *fragment.Distributed) {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return ex, d
}

// TestPaperFigure3 asserts that Compute reproduces exactly the eight local
// partial matches of Fig. 3, fragment by fragment.
func TestPaperFigure3(t *testing.T) {
	ex, d := buildPaper(t)
	for fragID, wantVecs := range paperexample.ExpectedPartialMatchVectors {
		ms, err := Compute(d.Fragments[fragID], ex.Query, Options{})
		if err != nil {
			t.Fatalf("F%d: %v", fragID+1, err)
		}
		var got [][5]int
		for _, m := range ms {
			got = append(got, vecOf(ex, m))
			if err := Verify(d.Fragments[fragID], ex.Query, m); err != nil {
				t.Errorf("F%d: invalid PM %v: %v", fragID+1, vecOf(ex, m), err)
			}
		}
		sortVecs(got)
		want := append([][5]int(nil), wantVecs...)
		sortVecs(want)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("F%d partial matches:\n got %v\nwant %v (Fig. 3)", fragID+1, got, want)
		}
	}
}

func sortVecs(vs [][5]int) {
	sort.Slice(vs, func(i, j int) bool { return fmt.Sprint(vs[i]) < fmt.Sprint(vs[j]) })
}

// TestPaperSigns checks the LECSign bitstrings of Example 6. The paper
// writes signs as [b1 b2 b3 b4 b5] with bit i ↔ query vertex vi; our Sign
// uses bit i for vertex index i (v1 = index 0).
func TestPaperSigns(t *testing.T) {
	ex, d := buildPaper(t)
	wantSigns := map[[5]int]string{
		{6, 0, 1, 0, 3}:    "00101", // LF([PM1_1])
		{12, 0, 1, 0, 3}:   "00101", // LF([PM2_1])
		{6, 5, 0, 4, 0}:    "01010", // LF([PM3_1])
		{6, 8, 1, 9, 0}:    "11010", // LF([PM1_2])
		{6, 10, 1, 11, 0}:  "11010", // LF([PM2_2])
		{6, 5, 1, 0, 0}:    "10000", // LF([PM3_2])
		{12, 13, 1, 17, 0}: "11010", // LF([PM1_3])
		{14, 13, 0, 17, 0}: "01010", // LF([PM2_3])
	}
	for fragID := range paperexample.ExpectedPartialMatchVectors {
		ms, err := Compute(d.Fragments[fragID], ex.Query, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			v := vecOf(ex, m)
			want, ok := wantSigns[v]
			if !ok {
				t.Errorf("unexpected PM %v", v)
				continue
			}
			got := signString(m.Sign, 5)
			if got != want {
				t.Errorf("PM %v sign = %s, want %s (Example 6)", v, got, want)
			}
		}
	}
}

func signString(sign uint64, n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		if sign&(1<<uint(i)) != 0 {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// TestPaperCrossingEdgeMappings checks the g functions of Example 6 for
// representative matches.
func TestPaperCrossingEdgeMappings(t *testing.T) {
	ex, d := buildPaper(t)
	ms, err := Compute(d.Fragments[0], ex.Query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Query edge indices in the fixture: 0 = p2-mainInterest->t,
	// 1 = p1-influencedBy->p2, 2 = t-label->l, 3 = p1-name->const.
	for _, m := range ms {
		v, cross := vecOf(ex, m), AppendCrossing(nil, ex.Query, m.Vec, m.EdgeVars, m.Sign)
		switch v {
		case [5]int{6, 0, 1, 0, 3}: // PM1_1: {001→006 ↦ v3v1}
			if len(cross) != 1 || cross[0].QEdge != 1 ||
				cross[0].S != ex.V[1] || cross[0].O != ex.V[6] {
				t.Errorf("PM1_1 crossing = %v", cross)
			}
		case [5]int{6, 5, 0, 4, 0}: // PM3_1: {006→005 ↦ v1v2}
			if len(cross) != 1 || cross[0].QEdge != 0 ||
				cross[0].S != ex.V[6] || cross[0].O != ex.V[5] {
				t.Errorf("PM3_1 crossing = %v", cross)
			}
		}
	}
	// PM3_2 carries two crossing edges.
	ms2, err := Compute(d.Fragments[1], ex.Query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range ms2 {
		if vecOf(ex, m) == [5]int{6, 5, 1, 0, 0} {
			found = true
			if cross := AppendCrossing(nil, ex.Query, m.Vec, m.EdgeVars, m.Sign); len(cross) != 2 {
				t.Errorf("PM3_2 crossing = %v, want two edges (Example 6)", cross)
			}
		}
	}
	if !found {
		t.Error("PM3_2 not found")
	}
}

func TestExtendedFilterPrunes(t *testing.T) {
	ex, d := buildPaper(t)
	// Filter out extended vertex 012 everywhere: PM2_1 must disappear.
	ms, err := Compute(d.Fragments[0], ex.Query, Options{
		ExtendedFilter: func(qv int, u rdf.TermID) bool { return u != ex.V[12] },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if vecOf(ex, m) == [5]int{12, 0, 1, 0, 3} {
			t.Error("PM2_1 not pruned by extended filter")
		}
	}
	if len(ms) != 2 {
		t.Errorf("got %d PMs after filter, want 2", len(ms))
	}
}

func TestSingleFragmentNoPartialMatches(t *testing.T) {
	ex := paperexample.New()
	a := &partition.Assignment{K: 1, Frag: map[rdf.TermID]int{}}
	for _, v := range ex.Store.Vertices() {
		a.Frag[v] = 0
	}
	d, err := fragment.Build(ex.Store, a)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := Compute(d.Fragments[0], ex.Query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("single fragment produced %d partial matches", len(ms))
	}
}

func TestVariablePredicatePartialMatches(t *testing.T) {
	// A two-edge path with a shared predicate variable crossing a cut.
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b") // crossing
	g.AddIRIs("b", "p", "c") // internal to F1
	st := store.FromGraph(g)
	a := &partition.Assignment{K: 2, Frag: map[rdf.TermID]int{}}
	idOf := func(s string) rdf.TermID { id, _ := g.Dict.Lookup(rdf.NewIRI(s)); return id }
	a.Frag[idOf("a")] = 0
	a.Frag[idOf("b")] = 1
	a.Frag[idOf("c")] = 1
	d, err := fragment.Build(st, a)
	if err != nil {
		t.Fatal(err)
	}
	q := query.NewBuilder(g.Dict).
		Triple(query.Var("x"), query.Var("pp"), query.Var("y")).
		Triple(query.Var("y"), query.Var("pp"), query.Var("z")).
		MustBuild()
	ms0, err := Compute(d.Fragments[0], q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// F0 holds only vertex a (internal); PM: x=a via crossing edge with
	// pp bound to p.
	p := idOf("p")
	for _, m := range ms0 {
		if err := Verify(d.Fragments[0], q, m); err != nil {
			t.Errorf("invalid PM: %v", err)
		}
		if m.EdgeVars[1] != p {
			t.Errorf("edge var bound to %d, want p", m.EdgeVars[1])
		}
	}
	if len(ms0) == 0 {
		t.Fatal("no partial matches in F0")
	}
	ms1, err := Compute(d.Fragments[1], q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms1 {
		if err := Verify(d.Fragments[1], q, m); err != nil {
			t.Errorf("invalid PM in F1: %v", err)
		}
	}
	if len(ms1) == 0 {
		t.Fatal("no partial matches in F1")
	}
}

func TestQueryTooLarge(t *testing.T) {
	g := rdf.NewGraph()
	g.AddIRIs("a", "p", "b")
	st := store.FromGraph(g)
	a, _ := partition.Hash{}.Partition(st, 2)
	d, _ := fragment.Build(st, a)
	b := query.NewBuilder(g.Dict)
	for i := 0; i < 70; i++ {
		b.Triple(query.Var(fmt.Sprintf("v%d", i)), query.IRI("p"), query.Var(fmt.Sprintf("v%d", i+1)))
	}
	// Oversized queries are now rejected at compile time by query.Validate.
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "query too large") {
		t.Errorf("Build of 71-vertex query: err = %v, want query-too-large", err)
	}
	// Defense in depth: a hand-built graph bypassing Build is still
	// rejected by Compute itself.
	pid := g.Dict.Encode(rdf.NewIRI("p"))
	raw := &query.Graph{}
	for i := 0; i <= 70; i++ {
		raw.Vars = append(raw.Vars, fmt.Sprintf("v%d", i))
		raw.Vertices = append(raw.Vertices, query.Vertex{Var: i})
	}
	for i := 0; i < 70; i++ {
		raw.Edges = append(raw.Edges, query.Edge{From: i, To: i + 1, Label: pid, LabelVar: query.NoVar})
	}
	if _, err := Compute(d.Fragments[0], raw, Options{}); err == nil {
		t.Error("expected size-limit error from Compute")
	}
}

// predicates returns the distinct labels of st's edges, ascending.
func predicates(st *store.Store) []rdf.TermID {
	var ps []rdf.TermID
	for _, t := range st.Triples() {
		ps = append(ps, t.P)
	}
	slices.Sort(ps)
	return slices.Compact(ps)
}

// definitionMatches enumerates the local partial matches of q in f
// straight from Definition 5: every assignment of query vertices to
// {NULL} ∪ V(F_i) and of label variables to {unbound} ∪ predicates,
// with the edge matching that assignment forces — an edge is matched
// exactly when both endpoints are bound and one is internal — kept when
// a label variable is bound exactly if an edge carrying it is matched,
// parallel query edges find enough edge instances (Def. 3), and Verify
// accepts. Matches are returned sorted by compareMatches.
func definitionMatches(f *fragment.Fragment, q *query.Graph) []*Match {
	domain := append([]rdf.TermID{rdf.NoTerm}, f.Store.Vertices()...)
	labels := append([]rdf.TermID{rdf.NoTerm}, predicates(f.Store)...)
	labelVars := q.EdgeVars()
	vec := make([]rdf.TermID, len(q.Vertices))
	evs := make([]rdf.TermID, len(q.Vars))
	var ms []*Match
	check := func() {
		m := &Match{Frag: f.ID, Vec: slices.Clone(vec)}
		if len(labelVars) > 0 {
			m.EdgeVars = slices.Clone(evs)
		}
		type slot struct {
			from, to int
			p        rdf.TermID
		}
		uses := make(map[slot]int) // query edges per (vertex pair, label)
		bound := make(map[int]bool)
		for _, e := range q.Edges {
			s, o := vec[e.From], vec[e.To]
			if s == rdf.NoTerm || o == rdf.NoTerm || !(f.IsInternal(s) || f.IsInternal(o)) {
				continue
			}
			p := e.Label
			if e.HasVarLabel() {
				p = evs[e.LabelVar]
				bound[e.LabelVar] = true
			}
			sl := slot{e.From, e.To, p}
			if uses[sl]++; uses[sl] > f.Store.CountTriples(s, p, o) {
				return
			}
		}
		for _, lv := range labelVars {
			if bound[lv] != (evs[lv] != rdf.NoTerm) {
				return
			}
		}
		for i, u := range vec {
			if u != rdf.NoTerm && f.IsInternal(u) {
				m.Sign |= 1 << uint(i)
			}
		}
		if Verify(f, q, m) == nil {
			ms = append(ms, m)
		}
	}
	var assignLabels func(k int)
	assignLabels = func(k int) {
		if k == len(labelVars) {
			check()
			return
		}
		for _, p := range labels {
			evs[labelVars[k]] = p
			assignLabels(k + 1)
		}
	}
	var assign func(qv int)
	assign = func(qv int) {
		if qv == len(q.Vertices) {
			assignLabels(0)
			return
		}
		for _, u := range domain {
			vec[qv] = u
			assign(qv + 1)
		}
	}
	assign(0)
	slices.SortFunc(ms, compareMatches)
	return ms
}

// compareMatches orders matches by the fields that tell them apart:
// fragment, vector and edge-label bindings (the sign and the crossing
// edges follow from them).
func compareMatches(a, b *Match) int {
	return cmp.Or(cmp.Compare(a.Frag, b.Frag), slices.Compare(a.Vec, b.Vec), slices.Compare(a.EdgeVars, b.EdgeVars))
}

// fragmentCrossing lists the query edges m maps to crossing edges of f,
// read off the fragment rather than the sign: both ends bound, exactly
// one of them internal to f.
func fragmentCrossing(f *fragment.Fragment, q *query.Graph, m *Match) []CrossEdge {
	var out []CrossEdge
	for i, e := range q.Edges {
		s, o := m.Vec[e.From], m.Vec[e.To]
		if s == rdf.NoTerm || o == rdf.NoTerm || f.IsInternal(s) == f.IsInternal(o) {
			continue
		}
		p := e.Label
		if e.HasVarLabel() {
			p = m.EdgeVars[e.LabelVar]
		}
		out = append(out, CrossEdge{QEdge: i, S: s, P: p, O: o})
	}
	return out
}

func sameMatch(a, b *Match) bool { return compareMatches(a, b) == 0 }

// distinctMatches counts the matches of ms that compareMatches tells apart.
func distinctMatches(ms []*Match) int {
	ms = slices.Clone(ms)
	slices.SortFunc(ms, compareMatches)
	return len(slices.CompactFunc(ms, sameMatch))
}

// checkAgainstDefinition reports how Compute's output for f differs
// from Definition 5's at the given pool widths, the first of which is 1:
// every match verifies, none appears twice, the match set is the
// definition's, and the chunked runs return what the sequential one
// does, in its order. It returns the number of matches.
func checkAgainstDefinition(f *fragment.Fragment, q *query.Graph, widths ...int) (int, error) {
	want := definitionMatches(f, q)
	var seq []*Match
	for _, width := range widths {
		ms, err := Compute(f, q, Options{Pool: pool.New(width)})
		if err != nil {
			return 0, err
		}
		if width == 1 {
			seq = ms
		} else if !reflect.DeepEqual(ms, seq) {
			return 0, fmt.Errorf("F%d: width %d returns %d matches, differing from width 1's %d", f.ID, width, len(ms), len(seq))
		}
	}
	crossing := 0
	for _, m := range seq {
		if err := Verify(f, q, m); err != nil {
			return 0, fmt.Errorf("F%d: %v fails Definition 5: %v", f.ID, m.Vec, err)
		}
		if m.Query != q {
			return 0, fmt.Errorf("F%d: match %v does not carry its query", f.ID, m.Vec)
		}
		got, want := AppendCrossing(nil, q, m.Vec, m.EdgeVars, m.Sign), fragmentCrossing(f, q, m)
		if !slices.Equal(got, want) {
			return 0, fmt.Errorf("F%d: the rule derives %v, the fragment has %v", f.ID, got, want)
		}
		crossing += len(got)
	}
	// The shipped columns fit the query, and Check ties them to it and
	// counts their crossing edges as the site did.
	site, err := ComputeSet(f, q, Options{})
	if err != nil {
		return 0, err
	}
	shipped := Set{Frag: site.Frag, Stride: site.Stride, LabelStride: site.LabelStride, Sign: site.Sign, Vec: site.Vec, EdgeVars: site.EdgeVars}
	if err := Check(q, &shipped); err != nil {
		return 0, fmt.Errorf("F%d: %v", f.ID, err)
	}
	if shipped.Query != q || site.Query != q || shipped.Crossing != crossing || site.Crossing != crossing {
		return 0, fmt.Errorf("F%d: the site counts %d crossing edges and Check %d, the rule %d", f.ID, site.Crossing, shipped.Crossing, crossing)
	}
	got := slices.Clone(seq)
	slices.SortFunc(got, compareMatches)
	if !slices.EqualFunc(got, want, sameMatch) {
		return 0, fmt.Errorf("F%d: Compute finds %d matches (%d distinct), Definition 5 has %d", f.ID, len(got), distinctMatches(got), len(want))
	}
	return len(want), nil
}

// TestComputeAlwaysVerifies: on random multigraphs and partitionings —
// second edge instances included, and one crossing edge always doubled so
// that at width 8 a chunk ends and the next begins on the same triple —
// Compute returns exactly the matches Definition 5 has, once each, at
// every width.
func TestComputeAlwaysVerifies(t *testing.T) {
	x, y, z, w := query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w")
	p0, p1, p2 := query.IRI("p0"), query.IRI("p1"), query.IRI("p2")
	shapes := map[string][][3]query.Node{
		"path":           {{x, p0, y}, {y, p1, z}, {z, p2, w}},
		"label variable": {{x, query.Var("l"), y}, {y, query.Var("l"), z}, {z, p0, w}},
		"parallel edges": {{x, p0, y}, {x, query.Var("l"), y}, {y, p1, z}},
	}
	for name, patterns := range shapes {
		t.Run(name, func(t *testing.T) {
			matches, straddles := 0, 0
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				g := rdf.NewGraph()
				nv := 3 + r.Intn(6)
				ne := 6 + r.Intn(14)
				for i := 0; i < ne; i++ {
					g.AddIRIs(fmt.Sprintf("v%d", r.Intn(nv)), fmt.Sprintf("p%d", r.Intn(3)), fmt.Sprintf("v%d", r.Intn(nv)))
				}
				g.Triples = append(g.Triples, g.Triples[:r.Intn(4)]...) // second instances
				k := 2 + r.Intn(3)
				a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
				for _, tr := range g.Triples {
					for _, v := range []rdf.TermID{tr.S, tr.O} {
						if _, ok := a.Frag[v]; !ok {
							a.Frag[v] = r.Intn(k)
						}
					}
				}
				for _, tr := range g.Triples {
					if a.Frag[tr.S] != a.Frag[tr.O] {
						g.Triples = append(g.Triples, tr) // a doubled crossing edge
						break
					}
				}
				d, err := fragment.Build(store.FromGraph(g), a)
				if err != nil {
					t.Log(err)
					return false
				}
				b := query.NewBuilder(g.Dict)
				for _, p := range patterns {
					b.Triple(p[0], p[1], p[2])
				}
				q := b.MustBuild()
				for _, f := range d.Fragments {
					n, err := checkAgainstDefinition(f, q, 1, 2, 8)
					if err != nil {
						t.Logf("seed %d: %v", seed, err)
						return false
					}
					matches += n
					// 32 chunks at width 8: with at most that many crossing
					// edges every chunk is one triple, and a doubled edge
					// straddles a boundary.
					for i := 1; i < f.Crossing.Len() && f.Crossing.Len() <= 32; i++ {
						if f.Crossing.At(i) == f.Crossing.At(i-1) {
							straddles++
						}
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
			if matches == 0 || straddles == 0 {
				t.Errorf("%d matches and %d chunk-straddling duplicates: the case was not exercised", matches, straddles)
			}
		})
	}
}

// lubm1LQ7 is LUBM(1) under hash partitioning into four fragments with
// its least selective complex query: 299 partial matches, a third of
// them reachable from two crossing edges.
func lubm1LQ7(t *testing.T) (*fragment.Distributed, *query.Graph) {
	t.Helper()
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	d, err := buildWith(store.FromGraph(ds.Graph), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := ds.Query("LQ7")
	if err != nil {
		t.Fatal(err)
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		t.Fatal(err)
	}
	return d, q
}

// TestComputeAllocations pins what enumerating each match once, on a
// search that restores its slots in line, bought on the heap: LUBM(1)
// LQ7 at width 1 allocates at most half of what the tree before it did
// (PARENT, measured the same way on that commit), where every match was
// built once per crossing edge it contains and every step allocated its
// undo closures.
func TestComputeAllocations(t *testing.T) {
	d, q := lubm1LQ7(t)
	matches := 0
	allocs := testing.AllocsPerRun(20, func() {
		matches = 0
		for _, f := range d.Fragments {
			ms, err := Compute(f, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			matches += len(ms)
		}
	})
	const parent = 4984
	t.Logf("%.0f allocations for %d matches", allocs, matches)
	if matches != 299 {
		t.Errorf("%d matches, want 299", matches)
	}
	if allocs > parent/2 {
		t.Errorf("%.0f allocations, want at most half of the parent's %d", allocs, parent)
	}
}

// TestMatchBytesPricesEveryMatch: every match the enumerator finds has
// the shape MatchBytes prices, a 4-byte slot per query vertex and no
// edge-variable slots in a query without an edge-label variable.
func TestMatchBytesPricesEveryMatch(t *testing.T) {
	ex, d := buildPaper(t)
	ms, err := Compute(d.Fragments[0], ex.Query, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := distinctMatches(ms); n != len(ms) {
		t.Errorf("%d matches, %d of them distinct", len(ms), n)
	}
	for _, m := range ms {
		if got, want := 8+4*len(m.Vec)+4*len(m.EdgeVars), MatchBytes(ex.Query); got != want {
			t.Errorf("partial match %v takes %d bytes, MatchBytes says %d", vecOf(ex, m), got, want)
		}
		if !slices.Contains(m.Vec, rdf.NoTerm) {
			t.Errorf("partial match %v reported complete", vecOf(ex, m))
		}
	}
}

// TestCheckRejectsMalformedSets: Check takes a set as it comes off the
// wire. Each case breaks one well-formed set of one match in one way —
// a vector stride, a label stride, a column's length or a sign bit — and
// Check must refuse it by name; the well-formed sets pass, get their
// query and have their crossing edge counted.
func TestCheckRejectsMalformedSets(t *testing.T) {
	dict := rdf.NewDictionary()
	x, y, z := query.Var("x"), query.Var("y"), query.Var("z")
	plain := query.NewBuilder(dict).Triple(x, query.IRI("p0"), y).Triple(y, query.IRI("p1"), z).MustBuild()
	labelled := query.NewBuilder(dict).Triple(x, query.Var("p"), y).Triple(y, query.IRI("p1"), z).MustBuild()
	// x internal, y extended, z NULL: x→y is the one crossing edge.
	good := func(q *query.Graph) Set {
		s := Set{Frag: 2, Stride: 3, Sign: []uint64{0b001}, Vec: []rdf.TermID{1, 2, rdf.NoTerm}}
		if q == labelled {
			s.LabelStride = len(q.Vars)
			s.EdgeVars = slices.Repeat([]rdf.TermID{7}, len(q.Vars))
		}
		return s
	}
	for _, q := range []*query.Graph{plain, labelled} {
		s := good(q)
		if err := Check(q, &s); err != nil || s.Query != q || s.Crossing != 1 {
			t.Fatalf("%v: Check = %v, query set %v, %d crossing edges; want nil, true, 1", q, err, s.Query == q, s.Crossing)
		}
	}
	for _, c := range []struct {
		name string
		q    *query.Graph
		edit func(s *Set)
	}{
		{"vector stride short of |V|", plain, func(s *Set) { s.Stride, s.Vec = 2, s.Vec[:2] }},
		{"vector stride past |V|", plain, func(s *Set) { s.Stride, s.Vec = 4, append(s.Vec, 3) }},
		{"label stride without a label variable", plain, func(s *Set) { s.LabelStride, s.EdgeVars = 3, []rdf.TermID{0, 0, 0} }},
		{"no label stride under a label variable", labelled, func(s *Set) { s.LabelStride, s.EdgeVars = 0, nil }},
		{"wrong label stride under a label variable", labelled, func(s *Set) { s.LabelStride--; s.EdgeVars = s.EdgeVars[1:] }},
		{"vector column short of the count", plain, func(s *Set) { s.Sign = append(s.Sign, 0b001) }},
		{"vector column past the count", plain, func(s *Set) { s.Vec = append(s.Vec, 1, 2, 3) }},
		{"label column past the count", labelled, func(s *Set) { s.EdgeVars = append(s.EdgeVars, 7) }},
		{"label column short of the count", labelled, func(s *Set) { s.EdgeVars = s.EdgeVars[1:] }},
		{"sign bit past |V|", plain, func(s *Set) { s.Sign[0] |= 1 << 3 }},
		{"sign's last bit", labelled, func(s *Set) { s.Sign[0] |= 1 << 63 }},
		{"sign bit on a NULL slot", plain, func(s *Set) { s.Sign[0] |= 1 << 2 }},
	} {
		s := good(c.q)
		c.edit(&s)
		err := Check(c.q, &s)
		if err == nil || !strings.Contains(err.Error(), "partial: matches of fragment 2") {
			t.Errorf("%s: Check = %v, want the shape check's error", c.name, err)
		} else if s.Query != nil {
			t.Errorf("%s: a refused set got its query", c.name)
		}
	}
}
