package fragment

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/runs"
	"gstored/internal/store"
)

// snapshot is a deep copy of everything a Fragment is: V_i, the crossing
// list in order and its counts by label and internal end, the edge
// count, and its store read through every index (Triples walks out, In
// walks in, a one-edge `?s p ?o` Match each predicate's list and Stats
// the per-predicate tables). Two fragments are
// the same iff their snapshots are DeepEqual, and a snapshot shares no
// memory with the fragment it was taken from. The crossing list is read
// as partial evaluation reads it: in a pool's chunks, each through
// Slices, with At at every chunk's first position.
type snapshot struct {
	Internal    []rdf.TermID
	Crossing    []rdf.Triple
	NumExtended int
	Triples, In []rdf.Triple
	ByPred      map[rdf.TermID][]rdf.Triple
	Stats       map[rdf.TermID]store.PredStat
	CrossCount  map[rdf.TermID][2]int
}

func snapshotOf(f *Fragment) snapshot {
	s := snapshot{
		Internal:    f.InternalVertices(),
		Crossing:    []rdf.Triple{},
		NumExtended: f.NumExtended(),
		Triples:     f.Store.Triples(),
		In:          []rdf.Triple{},
		ByPred:      map[rdf.TermID][]rdf.Triple{},
		Stats:       map[rdf.TermID]store.PredStat{},
		CrossCount:  map[rdf.TermID][2]int{},
	}
	for _, ch := range pool.New(3).Split(f.Crossing.Len()) {
		if ch[0] < ch[1] && f.Crossing.At(ch[0]) != f.Crossing.Flat()[ch[0]] {
			panic(fmt.Sprintf("crossing list: At(%d) disagrees with Flat", ch[0]))
		}
		for ts := range f.Crossing.Slices(ch[0], ch[1]) {
			s.Crossing = append(s.Crossing, ts...)
		}
	}
	for _, o := range f.Store.Vertices() {
		for _, he := range f.Store.Adjacency(o, false, rdf.NoTerm) {
			s.In = append(s.In, rdf.Triple{S: he.V, P: he.P, O: o})
		}
	}
	for _, p := range predicates(f.Store) {
		s.ByPred[p] = triplesWith(f, p)
		s.Stats[p], _ = f.Store.Stats().Pred(p)
	}
	for _, p := range append(predicates(f.Store), rdf.NoTerm) {
		s.CrossCount[p] = [2]int{f.CrossingCount(p, true), f.CrossingCount(p, false)}
	}
	return s
}

// triplesWith reads the triples carrying p through the store's
// per-predicate index, which seeds a one-edge `?s p ?o` match, in the
// index's (S,P,O) order.
func triplesWith(f *Fragment, p rdf.TermID) []rdf.Triple {
	q := query.NewBuilderReadOnly(f.Store.Dict).Triple(query.Var("s"), query.Term(f.Store.Dict.MustDecode(p)), query.Var("o")).MustBuild()
	ts := []rdf.Triple{}
	for _, b := range f.Store.Match(q) {
		ts = append(ts, rdf.Triple{S: b.Vars[0], P: p, O: b.Vars[1]})
	}
	return ts
}

// sameReads holds f to w, a fragment with the same payload that owns its
// index, read for read: at every vertex of vs, Adjacency in both
// directions under each label of ps and under rdf.NoTerm (and Degree
// beside it), HasVertex and IsExtended; HasTriple and CountTriples of
// each probe. A coordinator fragment that reads a stale row of the
// global index, or keeps a half-edge of it with no end in V_i, differs.
func sameReads(t *testing.T, f, w *Fragment, vs, ps []rdf.TermID, probes []rdf.Triple) {
	t.Helper()
	for _, v := range vs {
		if a, b := f.Store.HasVertex(v), w.Store.HasVertex(v); a != b {
			t.Errorf("fragment %d: HasVertex(%d) = %v, its payload's %v", f.ID, v, a, b)
		}
		if a, b := f.IsExtended(v), w.IsExtended(v); a != b {
			t.Errorf("fragment %d: IsExtended(%d) = %v, its payload's %v", f.ID, v, a, b)
		}
		for _, out := range [2]bool{true, false} {
			for _, p := range append(slices.Clone(ps), rdf.NoTerm) {
				a, b := f.Store.Adjacency(v, out, p), w.Store.Adjacency(v, out, p)
				if !slices.Equal(a, b) || f.Store.Degree(v, out, p) != len(b) {
					t.Errorf("fragment %d: Adjacency(%d, %v, %d) = %v (Degree %d), its payload's %v", f.ID, v, out, p, a, f.Store.Degree(v, out, p), b)
				}
			}
		}
	}
	for _, tr := range probes {
		if a, b := f.Store.CountTriples(tr.S, tr.P, tr.O), w.Store.CountTriples(tr.S, tr.P, tr.O); a != b || f.Store.HasTriple(tr.S, tr.P, tr.O) != (b > 0) {
			t.Errorf("fragment %d: CountTriples(%v) = %d (HasTriple %v), its payload's %d", f.ID, tr, a, f.Store.HasTriple(tr.S, tr.P, tr.O), b)
		}
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

// everyTriple is every triple over vertices vs and labels ps.
func everyTriple(vs, ps []rdf.TermID) []rdf.Triple {
	var out []rdf.Triple
	for _, s := range vs {
		for _, p := range ps {
			for _, o := range vs {
				out = append(out, rdf.Triple{S: s, P: p, O: o})
			}
		}
	}
	return out
}

// checkDelta applies the delta incrementally and compares against a full
// Build over the post-delta store: the two must be the same fragment by
// fragment — crossing lists in the same order, stores with the same
// triples and per-predicate statistics — and the incremental result must
// pass CheckInvariants on its own. Every coordinator fragment, touched
// or not, must also read as the worker's rebuild of it from its payload
// (sameReads) at every vertex and label the graph had before or after
// the delta, and for every triple over them. It also plays the worker:
// each share Patch returns, applied to the fragment a site holds for d,
// must give the same fragment. held is that site-side generation (a nil
// held is a full ship: FromPayload of each fragment's payload); the
// site-side generation after the delta is returned beside the
// coordinator's. The reference Build places each vertex as ownership
// says.
func checkDelta(t *testing.T, d *Distributed, held []*Fragment, inserted, deleted []rdf.Triple) (*Distributed, []*Fragment) {
	t.Helper()
	newGlobal := d.Global.Apply(inserted, deleted)
	got, deltas, err := d.Patch(newGlobal, inserted, deleted)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("post-delta invariants: %v", err)
	}
	want, err := Build(newGlobal, ownership(d, newGlobal))
	if err != nil {
		t.Fatalf("reference Build: %v", err)
	}
	if held == nil {
		held = make([]*Fragment, len(d.Fragments))
		for i, f := range d.Fragments {
			if held[i], err = FromPayload(f.Payload(), d.Dict); err != nil {
				t.Fatalf("fragment %d does not ship: %v", i, err)
			}
		}
	}
	vs := slices.Compact(slices.Sorted(slices.Values(append(d.Global.Vertices(), newGlobal.Vertices()...))))
	ps := slices.Compact(slices.Sorted(slices.Values(append(predicates(d.Global), predicates(newGlobal)...))))
	probes := everyTriple(vs, ps)
	patched := slices.Clone(held)
	for i := range want.Fragments {
		f := got.Fragments[i]
		w, err := FromPayload(f.Payload(), d.Dict)
		if err != nil {
			t.Fatalf("fragment %d does not ship after the delta: %v", i, err)
		}
		sameReads(t, f, w, vs, ps, probes)
		if deltas[i] == nil {
			if got.Fragments[i] != d.Fragments[i] {
				t.Errorf("fragment %d has no share of the delta but was replaced", i)
			}
		} else if patched[i], err = held[i].Apply(deltas[i]); err != nil {
			t.Fatalf("site-side Apply of fragment %d's share %+v: %v", i, deltas[i], err)
		}
		wf := want.Fragments[i]
		ws := snapshotOf(wf)
		for side, f := range map[string]*Fragment{"coordinator": got.Fragments[i], "site": patched[i]} {
			if gs := snapshotOf(f); !reflect.DeepEqual(gs, ws) {
				t.Errorf("%s fragment %d after delta = %+v\nfrom-scratch Build  = %+v", side, i, gs, ws)
			}
			if !reflect.DeepEqual(f.Store.Stats(), wf.Store.Stats()) {
				t.Errorf("%s fragment %d store statistics differ from a from-scratch Build", side, i)
			}
		}
	}
	return got, patched
}

// checkDeltaEquivalent is checkDelta against a full ship of d.
func checkDeltaEquivalent(t *testing.T, d *Distributed, inserted, deleted []rdf.Triple) *Distributed {
	t.Helper()
	got, _ := checkDelta(t, d, nil, inserted, deleted)
	return got
}

// ownership is the oracle's placement of newGlobal's vertices after a
// delta to d, read off the generation itself rather than any plan: a
// vertex goes to the fragment of d whose V_i holds it, and one that no
// fragment holds to the Hash strategy's pick.
func ownership(d *Distributed, newGlobal *store.Store) *partition.Assignment {
	a := &partition.Assignment{K: len(d.Fragments), Frag: map[rdf.TermID]int{}}
	for _, f := range d.Fragments {
		for _, v := range f.InternalVertices() {
			a.Frag[v] = f.ID
		}
	}
	for _, v := range newGlobal.Vertices() {
		if _, ok := a.Frag[v]; !ok {
			a.Frag[v] = partition.HashFragment(d.Dict, v, a.K)
		}
	}
	return a
}

// deltaChain drives a sequence of deltas through Patch, each on top of
// the last one's result, on both sides of the install: the coordinator's
// generation and a site's, which only ever receives shares and patches
// the fragments it built from the first full ship. After every step it
// checks that the newest generation on each side equals Build of the
// post-delta store, and that every earlier generation still equals the
// snapshot taken while it was current — a write into an adjacency list,
// a Crossing slice or a V_i map shared between generations shows up as a
// changed old snapshot.
type deltaChain struct {
	d    *Distributed
	held []*Fragment
	gens [][]*Fragment // the coordinator's fragments, then the site's
	was  [][]snapshot
}

func newDeltaChain(t *testing.T, d *Distributed) *deltaChain {
	t.Helper()
	c := &deltaChain{}
	held := make([]*Fragment, len(d.Fragments))
	for i, f := range d.Fragments {
		var err error
		if held[i], err = FromPayload(f.Payload(), d.Dict); err != nil {
			t.Fatal(err)
		}
	}
	c.push(d, held)
	return c
}

func (c *deltaChain) push(d *Distributed, held []*Fragment) {
	frags := append(slices.Clone(d.Fragments), held...)
	snaps := make([]snapshot, len(frags))
	for i, f := range frags {
		snaps[i] = snapshotOf(f)
	}
	c.d, c.held, c.gens, c.was = d, held, append(c.gens, frags), append(c.was, snaps)
}

func (c *deltaChain) step(t *testing.T, inserted, deleted []rdf.Triple) {
	t.Helper()
	c.push(checkDelta(t, c.d, c.held, inserted, deleted))
	for g, frags := range c.gens {
		for i, f := range frags {
			if now := snapshotOf(f); !reflect.DeepEqual(now, c.was[g][i]) {
				t.Fatalf("step %d wrote into generation %d: fragment %d is now %+v\nwas %+v", len(c.gens)-1, g, i, now, c.was[g][i])
			}
		}
	}
}

// deltaFixture builds a 3-fragment cluster over a small graph with both
// internal and crossing edges, a self-loop, and one internal and one
// crossing edge held twice (the store is a multigraph).
func deltaFixture(t *testing.T) (*rdf.Graph, *Distributed, func(s, p, o string) rdf.Triple) {
	t.Helper()
	g := rdf.NewGraph()
	mk := func(s, p, o string) rdf.Triple {
		return rdf.Triple{S: g.Dict.Encode(rdf.NewIRI(s)), P: g.Dict.Encode(rdf.NewIRI(p)), O: g.Dict.Encode(rdf.NewIRI(o))}
	}
	for _, tr := range [][3]string{
		{"a1", "p", "a2"}, {"a2", "p", "b1"}, {"b1", "q", "b2"},
		{"b2", "q", "c1"}, {"c1", "p", "c2"}, {"c2", "r", "a1"},
		{"a1", "q", "a1"}, {"c1", "p", "c2"}, {"a2", "p", "b1"},
	} {
		g.AddIRIs(tr[0], tr[1], tr[2])
	}
	st := store.FromGraph(g)
	a := &partition.Assignment{K: 3, Frag: map[rdf.TermID]int{}, StrategyName: "test"}
	for _, v := range st.Vertices() {
		switch g.Dict.MustDecode(v).Value[0] {
		case 'a':
			a.Frag[v] = 0
		case 'b':
			a.Frag[v] = 1
		default:
			a.Frag[v] = 2
		}
	}
	d, err := Build(st, a)
	if err != nil {
		t.Fatal(err)
	}
	return g, d, mk
}

func TestApplyDeltaInsertInternalEdge(t *testing.T) {
	_, d, mk := deltaFixture(t)
	ins := []rdf.Triple{mk("a1", "p", "a2")}
	got := checkDeltaEquivalent(t, d, ins, nil)
	if _, ids, err := d.ApplyDelta(d.Global.Apply(ins, nil), nil, ins, nil); err != nil || !slices.Equal(ids, []int{0}) {
		t.Errorf("ApplyDelta reports touched fragments %v, %v; want [0]", ids, err)
	}
	// Only fragment 0 is touched; fragments 1 and 2 must be shared.
	for _, i := range []int{1, 2} {
		if got.Fragments[i] != d.Fragments[i] {
			t.Errorf("untouched fragment %d was rebuilt", i)
		}
	}
	if got.Fragments[0] == d.Fragments[0] {
		t.Error("touched fragment 0 was not rebuilt")
	}
}

func TestApplyDeltaInsertCrossingEdge(t *testing.T) {
	_, d, mk := deltaFixture(t)
	got := checkDeltaEquivalent(t, d, []rdf.Triple{mk("a2", "r", "c1")}, nil)
	if got.Fragments[1] != d.Fragments[1] {
		t.Error("fragment 1 should be untouched by an a-c crossing insert")
	}
}

func TestApplyDeltaDeleteCrossingEdge(t *testing.T) {
	_, d, mk := deltaFixture(t)
	// b2-q->c1 is the only b-c crossing edge: deleting it must shrink both
	// fragments' extended sets.
	got := checkDeltaEquivalent(t, d, nil, []rdf.Triple{mk("b2", "q", "c1")})
	if got.Fragments[0] != d.Fragments[0] {
		t.Error("fragment 0 should be untouched by a b-c crossing delete")
	}
}

// TestApplyDeltaNewVertex: a vertex no fragment holds is placed by the
// Hash strategy's rule, and one a fragment holds stays where it is.
func TestApplyDeltaNewVertex(t *testing.T) {
	g, d, mk := deltaFixture(t)
	ins := []rdf.Triple{mk("a1", "p", "fresh1"), mk("fresh1", "p", "fresh2")}
	got := checkDeltaEquivalent(t, d, ins, nil)
	for _, v := range []rdf.TermID{ins[1].S, ins[1].O} {
		if want := partition.HashFragment(g.Dict, v, 3); !got.Fragments[want].IsInternal(v) || got.Owner(v) != want {
			t.Errorf("fresh vertex %v not placed in its hash fragment %d", g.Dict.MustDecode(v), want)
		}
	}
	if !got.Fragments[0].IsInternal(ins[0].S) {
		t.Error("a1 left fragment 0")
	}
}

func TestApplyDeltaVertexVanishes(t *testing.T) {
	_, d, mk := deltaFixture(t)
	// c2 has exactly two incident edges; removing both orphans it.
	checkDeltaEquivalent(t, d, nil, []rdf.Triple{mk("c1", "p", "c2"), mk("c2", "r", "a1")})
}

func TestApplyDeltaSelfLoop(t *testing.T) {
	_, d, mk := deltaFixture(t)
	checkDeltaEquivalent(t, d, []rdf.Triple{mk("b1", "q", "b1")}, nil)
	checkDeltaEquivalent(t, d, nil, []rdf.Triple{mk("a1", "q", "a1")})
}

// TestUntouchedFragmentKeepsItsIndex: a fragment that several updates in
// a row leave untouched stays the same Fragment, reading the global
// index of the generation it was built in while the global index moves
// on under the others, and after every update still reads as its
// payload's rebuild (checkDelta). A coordinator fragment has no index of
// its own to splice, so Apply outside Patch refuses even a valid share.
func TestUntouchedFragmentKeepsItsIndex(t *testing.T) {
	g, d, mk := deltaFixture(t)
	b := d.Fragments[1]
	c := newDeltaChain(t, d)
	for _, step := range [][2][]rdf.Triple{
		{{mk("a2", "r", "c1")}, nil},
		{{mk("a1", "q", "a2")}, {mk("c1", "p", "c2")}},
		{{mk("c2", "p", "a2"), mk("c1", "q", "a1")}, nil},
		{nil, {mk("a2", "r", "c1"), mk("c2", "r", "a1")}},
	} {
		c.step(t, step[0], step[1])
		if c.d.Fragments[1] != b {
			t.Fatalf("fragment 1 was patched by a delta between a and c vertices: %v", step)
		}
	}
	a1, a2 := g.Dict.Encode(rdf.NewIRI("a1")), g.Dict.Encode(rdf.NewIRI("a2"))
	if _, err := c.d.Fragments[0].Apply(&Delta{Inserted: []rdf.Triple{mk("a1", "p", "a2")}, Owned: sorted(a1, a2)}); err == nil {
		t.Error("a coordinator fragment applied a share outside Patch")
	}
}

// TestApplyRejectsHostileDelta: a share comes off the wire at a worker,
// so each way it can contradict the fragment it is applied to is an
// error, and the fragment is left exactly as it was. The base is a
// worker's copy of the fixture's fragment 0: a1 and a2 internal, b1 and
// c2 extended.
func TestApplyRejectsHostileDelta(t *testing.T) {
	g, d, mk := deltaFixture(t)
	id := func(name string) rdf.TermID { return g.Dict.Encode(rdf.NewIRI(name)) }
	base, err := FromPayload(d.Fragments[0].Payload(), d.Dict)
	if err != nil {
		t.Fatal(err)
	}
	was := snapshotOf(base)
	for _, tc := range []struct {
		name  string
		delta Delta
	}{
		{"owned vertices out of order", Delta{Inserted: []rdf.Triple{mk("a1", "p", "a2")}, Owned: []rdf.TermID{id("a2"), id("a1")}}},
		{"owned vertex repeated", Delta{Inserted: []rdf.Triple{mk("a1", "p", "a2")}, Owned: []rdf.TermID{id("a1"), id("a1"), id("a2")}}},
		{"edge with no owned endpoint", Delta{Deleted: []rdf.Triple{mk("b1", "q", "b2")}, Owned: []rdf.TermID{id("a1")}}},
		{"owns a vertex the base holds as extended", Delta{Inserted: []rdf.Triple{mk("a1", "q", "b1")}, Owned: sorted(id("a1"), id("b1"))}},
		{"disowns a vertex internal to the base", Delta{Inserted: []rdf.Triple{mk("a1", "q", "a2")}, Owned: []rdf.TermID{id("a2")}}},
		{"owns an extended vertex no edge names", Delta{Inserted: []rdf.Triple{mk("a1", "q", "a2")}, Owned: sorted(id("a1"), id("a2"), id("b1"))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if f, err := base.Apply(&tc.delta); err == nil {
				t.Errorf("accepted: %+v", snapshotOf(f))
			}
			if now := snapshotOf(base); !reflect.DeepEqual(now, was) {
				t.Errorf("a refused delta changed the base: %+v\nwas %+v", now, was)
			}
		})
	}
}

func sorted(vs ...rdf.TermID) []rdf.TermID {
	slices.Sort(vs)
	return vs
}

// TestApplyDeltaRandomized drives random mutation batches through the
// incremental path against full rebuilds, across all three strategies.
func TestApplyDeltaRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := rdf.NewGraph()
	for i := 0; i < 60; i++ {
		g.AddIRIs(fmt.Sprintf("http://ex/v%d", rng.Intn(20)), fmt.Sprintf("http://ex/p%d", rng.Intn(3)), fmt.Sprintf("http://ex/v%d", rng.Intn(20)))
	}
	st := store.FromGraph(g)
	for _, strat := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
		t.Run(strat.Name(), func(t *testing.T) {
			a, err := strat.Partition(st, 4)
			if err != nil {
				t.Fatal(err)
			}
			d, err := Build(st, a)
			if err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 10; round++ {
				var inserted, deleted []rdf.Triple
				seen := make(map[rdf.Triple]bool)
				for i := 0; i < 4; i++ {
					tr := rdf.Triple{
						S: g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/v%d", rng.Intn(24)))),
						P: g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/p%d", rng.Intn(3)))),
						O: g.Dict.Encode(rdf.NewIRI(fmt.Sprintf("http://ex/v%d", rng.Intn(24)))),
					}
					if !d.Global.HasTriple(tr.S, tr.P, tr.O) && !seen[tr] {
						inserted = append(inserted, tr)
						seen[tr] = true
					}
				}
				all := d.Global.Triples()
				for i := 0; i < 2 && len(all) > 0; i++ {
					deleted = append(deleted, all[rng.Intn(len(all))])
				}
				d = checkDeltaEquivalent(t, d, inserted, deleted)
			}
		})
	}
}

// TestApplyCopiesOnlyTouchedCrossingRuns pins what makes a fragment's
// crossing-list work follow the delta: over a chain of 8-triple deltas
// on three hash fragments whose crossing lists span many runs, every run
// of each patched fragment's list is shared with the generation before,
// but for at most two per crossing edge the fragment's share writes.
func TestApplyCopiesOnlyTouchedCrossingRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := rdf.NewGraph()
	const vertices = 4 * runs.B
	vertex := func(i int) string { return fmt.Sprintf("http://ex/v%d", i) }
	for i := 0; i < 6*vertices; i++ {
		g.AddIRIs(vertex(rng.Intn(vertices)), fmt.Sprintf("http://ex/p%d", rng.Intn(3)), vertex(rng.Intn(vertices)))
	}
	d, err := buildWith(store.FromGraph(g), partition.Hash{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	type id struct {
		p *rdf.Triple
		n int
	}
	for step := 0; step < 20; step++ {
		var inserted, deleted []rdf.Triple
		for i := 0; i < 4; i++ {
			tr := rdf.Triple{S: g.Dict.Encode(rdf.NewIRI(vertex(rng.Intn(vertices + vertices/4)))), P: g.Dict.Encode(rdf.NewIRI("http://ex/p0")), O: g.Dict.Encode(rdf.NewIRI(vertex(rng.Intn(vertices))))}
			if !d.Global.HasTriple(tr.S, tr.P, tr.O) && !slices.Contains(inserted, tr) {
				inserted = append(inserted, tr)
			}
		}
		all := d.Global.Triples()
		for i := 0; i < 4; i++ {
			deleted = append(deleted, all[rng.Intn(len(all))])
		}
		next, shares, err := d.Patch(d.Global.Apply(inserted, deleted), inserted, deleted)
		if err != nil {
			t.Fatal(err)
		}
		for i, share := range shares {
			if share == nil {
				continue
			}
			written := 0
			for _, tr := range append(share.Inserted, share.Deleted...) {
				if d.Owner(tr.S) != d.Owner(tr.O) {
					written++
				}
			}
			had := make(map[id]bool)
			for ts := range d.Fragments[i].Crossing.All() {
				had[id{&ts[0], len(ts)}] = true
			}
			copied := 0
			for ts := range next.Fragments[i].Crossing.All() {
				if !had[id{&ts[0], len(ts)}] {
					copied++
				}
			}
			if len(had) < 8 || copied > 2*written {
				t.Errorf("step %d: fragment %d copied %d of its crossing list's %d runs for %d crossing edges written", step, i, copied, len(had), written)
			}
		}
		d = next
	}
}

func endpointsOf(ts []rdf.Triple) []rdf.TermID {
	var out []rdf.TermID
	for _, t := range ts {
		out = append(out, t.S, t.O)
	}
	return out
}

// deltaNames and deltaPreds are the vocabulary of the chain test and the
// fuzz target: the fixture's vertices, one more per fragment letter, and
// two names no fragment letter claims (the Hash rule places those).
var (
	deltaNames = []string{"a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3", "x1", "x2"}
	deltaPreds = []string{"p", "q", "r"}
)

// TestApplyDeltaChain is patch-on-patch ≡ from-scratch: 250 seeded
// set-semantics deltas, each applied to the previous step's patched
// fragments (never to a fresh Build), over a base graph with duplicate
// edge instances. The vocabulary is small enough that vertices keep
// appearing and vanishing and self-loops come and go; a vertex that
// appears, new or back after losing its last edge, lands in its hash
// fragment.
func TestApplyDeltaChain(t *testing.T) {
	g, d, mk := deltaFixture(t)
	c := newDeltaChain(t, d)
	rng := rand.New(rand.NewSource(23))
	var appeared, vanished, loops int
	for step := 0; step < 250; step++ {
		var inserted, deleted []rdf.Triple
		inDelta := make(map[rdf.Triple]bool)
		for i := rng.Intn(4); i > 0; i-- {
			tr := mk(deltaNames[rng.Intn(len(deltaNames))], deltaPreds[rng.Intn(len(deltaPreds))], deltaNames[rng.Intn(len(deltaNames))])
			if !c.d.Global.HasTriple(tr.S, tr.P, tr.O) && !inDelta[tr] {
				inserted, inDelta[tr] = append(inserted, tr), true
				if tr.S == tr.O {
					loops++
				}
			}
		}
		all := c.d.Global.Triples()
		for i := rng.Intn(4); i > 0 && len(all) > 0; i-- {
			if tr := all[rng.Intn(len(all))]; !inDelta[tr] {
				deleted, inDelta[tr] = append(deleted, tr), true
			}
		}
		before := c.d.Global
		c.step(t, inserted, deleted)
		for _, v := range endpointsOf(append(inserted, deleted...)) {
			switch was, is := before.HasVertex(v), c.d.Global.HasVertex(v); {
			case !was && is:
				appeared++
				if want := partition.HashFragment(g.Dict, v, len(c.d.Fragments)); !c.d.Fragments[want].IsInternal(v) {
					t.Fatalf("step %d: %v appeared outside its hash fragment %d", step, g.Dict.MustDecode(v), want)
				}
			case was && !is:
				vanished++
			}
		}
	}
	if appeared < 10 || vanished < 10 || loops < 5 {
		t.Errorf("chain too tame to mean anything: %d vertices appeared, %d vanished, %d self-loops inserted", appeared, vanished, loops)
	}
}

// FuzzApplyDelta decodes its input into a delta sequence over the
// three-fragment fixture — four bytes an operation: bit 0 of the first
// picks insert or delete, bit 1 closes the current delta, the other three
// index subject, predicate and object — and runs the chain oracle. The
// operations are applied as decoded, not normalized to set semantics:
// repeated inserts, deletes of absent triples and a triple on both sides
// of one delta are all legal for Store.Apply, so they must patch a
// fragment exactly as they patch the graph it is a fragment of. The seed
// corpus is testdata/fuzz/FuzzApplyDelta.
func FuzzApplyDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256] // the oracle is quadratic in the chain length
		}
		_, d, mk := deltaFixture(t)
		c := newDeltaChain(t, d)
		var delta [2][]rdf.Triple
		for ; len(data) >= 4; data = data[4:] {
			tr := mk(deltaNames[int(data[1])%len(deltaNames)], deltaPreds[int(data[2])%len(deltaPreds)], deltaNames[int(data[3])%len(deltaNames)])
			delta[data[0]&1] = append(delta[data[0]&1], tr)
			if data[0]&2 != 0 {
				c.step(t, delta[0], delta[1])
				delta = [2][]rdf.Triple{}
			}
		}
		c.step(t, delta[0], delta[1])
	})
}
