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
	Internal         []rdf.TermID
	Crossing         []rdf.Triple
	NumInternalEdges int
	NumExtended      int
	Triples, In      []rdf.Triple
	ByPred           map[rdf.TermID][]rdf.Triple
	Stats            map[rdf.TermID]store.PredStat
	CrossCount       map[rdf.TermID][2]int
}

func snapshotOf(f *Fragment) snapshot {
	s := snapshot{
		Internal:         f.InternalVertices(),
		Crossing:         []rdf.Triple{},
		NumInternalEdges: f.NumInternalEdges,
		NumExtended:      f.NumExtended(),
		Triples:          f.Store.Triples(),
		In:               []rdf.Triple{},
		ByPred:           map[rdf.TermID][]rdf.Triple{},
		Stats:            map[rdf.TermID]store.PredStat{},
		CrossCount:       map[rdf.TermID][2]int{},
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
		for _, he := range f.Store.In(o) {
			s.In = append(s.In, rdf.Triple{S: he.V, P: he.P, O: o})
		}
	}
	for _, p := range f.Store.Predicates() {
		s.ByPred[p] = triplesWith(f, p)
		s.Stats[p], _ = f.Store.Stats().Pred(p)
	}
	for _, p := range append(f.Store.Predicates(), rdf.NoTerm) {
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

// checkDelta applies the delta incrementally and compares against a full
// Build over the post-delta store: the two must be the same fragment by
// fragment — crossing lists in the same order, stores with the same
// triples and per-predicate statistics — and the incremental result must
// pass CheckInvariants on its own. It also plays the worker: each share
// Patch returns, applied to the fragment a site holds for d, must give
// the same fragment. held is that site-side generation (a nil held is a
// full ship: FromPayload of each fragment's payload); the site-side
// generation after the delta is returned beside the coordinator's.
func checkDelta(t *testing.T, d *Distributed, held []*Fragment, a *partition.Assignment, inserted, deleted []rdf.Triple) (*Distributed, []*Fragment) {
	t.Helper()
	newGlobal := d.Global.Apply(inserted, deleted)
	got, deltas, err := d.Patch(newGlobal, a, inserted, deleted)
	if err != nil {
		t.Fatalf("Patch: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("post-delta invariants: %v", err)
	}
	want, err := Build(newGlobal, a)
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
	patched := slices.Clone(held)
	for i := range want.Fragments {
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
func checkDeltaEquivalent(t *testing.T, d *Distributed, a *partition.Assignment, inserted, deleted []rdf.Triple) *Distributed {
	t.Helper()
	got, _ := checkDelta(t, d, nil, a, inserted, deleted)
	return got
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
	dict *rdf.Dictionary
	d    *Distributed
	held []*Fragment
	gens [][]*Fragment // the coordinator's fragments, then the site's
	was  [][]snapshot
}

func newDeltaChain(t *testing.T, g *rdf.Graph, d *Distributed) *deltaChain {
	t.Helper()
	c := &deltaChain{dict: g.Dict}
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
	a := c.d.Assignment.WithVertices(c.dict, endpointsOf(append(append([]rdf.Triple{}, inserted...), deleted...)))
	c.push(checkDelta(t, c.d, c.held, a, inserted, deleted))
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
	got := checkDeltaEquivalent(t, d, d.Assignment, ins, nil)
	if _, ids, err := d.ApplyDelta(d.Global.Apply(ins, nil), d.Assignment, ins, nil); err != nil || !slices.Equal(ids, []int{0}) {
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
	got := checkDeltaEquivalent(t, d, d.Assignment, []rdf.Triple{mk("a2", "r", "c1")}, nil)
	if got.Fragments[1] != d.Fragments[1] {
		t.Error("fragment 1 should be untouched by an a-c crossing insert")
	}
}

func TestApplyDeltaDeleteCrossingEdge(t *testing.T) {
	_, d, mk := deltaFixture(t)
	// b2-q->c1 is the only b-c crossing edge: deleting it must shrink both
	// fragments' extended sets.
	got := checkDeltaEquivalent(t, d, d.Assignment, nil, []rdf.Triple{mk("b2", "q", "c1")})
	if got.Fragments[0] != d.Fragments[0] {
		t.Error("fragment 0 should be untouched by a b-c crossing delete")
	}
}

func TestApplyDeltaNewVertex(t *testing.T) {
	g, d, mk := deltaFixture(t)
	ins := []rdf.Triple{mk("a1", "p", "fresh1"), mk("fresh1", "p", "fresh2")}
	a := d.Assignment.WithVertices(g.Dict, []rdf.TermID{ins[0].O, ins[1].S, ins[1].O})
	if a == d.Assignment {
		t.Fatal("WithVertices returned the receiver despite fresh vertices")
	}
	checkDeltaEquivalent(t, d, a, ins, nil)
}

func TestApplyDeltaVertexVanishes(t *testing.T) {
	_, d, mk := deltaFixture(t)
	// c2 has exactly two incident edges; removing both orphans it.
	checkDeltaEquivalent(t, d, d.Assignment, nil, []rdf.Triple{mk("c1", "p", "c2"), mk("c2", "r", "a1")})
}

func TestApplyDeltaSelfLoop(t *testing.T) {
	_, d, mk := deltaFixture(t)
	checkDeltaEquivalent(t, d, d.Assignment, []rdf.Triple{mk("b1", "q", "b1")}, nil)
	checkDeltaEquivalent(t, d, d.Assignment, nil, []rdf.Triple{mk("a1", "q", "a1")})
}

func TestApplyDeltaUncoveredEndpointFails(t *testing.T) {
	g, d, _ := deltaFixture(t)
	fresh := rdf.Triple{S: g.Dict.Encode(rdf.NewIRI("ghost")), P: g.Dict.Encode(rdf.NewIRI("p")), O: g.Dict.Encode(rdf.NewIRI("a1"))}
	newGlobal := d.Global.Apply([]rdf.Triple{fresh}, nil)
	if _, _, err := d.ApplyDelta(newGlobal, d.Assignment, []rdf.Triple{fresh}, nil); err == nil {
		t.Error("ApplyDelta accepted an endpoint the assignment does not cover")
	}
}

// TestApplyRejectsHostileDelta: a share comes off the wire at a worker,
// so each way it can contradict the fragment it is applied to is an
// error, and the fragment is left exactly as it was. The base is the
// fixture's fragment 0: a1 and a2 internal, b1 and c2 extended.
func TestApplyRejectsHostileDelta(t *testing.T) {
	g, d, mk := deltaFixture(t)
	id := func(name string) rdf.TermID { return g.Dict.Encode(rdf.NewIRI(name)) }
	base := d.Fragments[0]
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
				aa := a.WithVertices(g.Dict, endpointsOf(inserted))
				d = checkDeltaEquivalent(t, d, aa, inserted, deleted)
				a = aa
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
		a := d.Assignment.WithVertices(g.Dict, endpointsOf(inserted))
		next, shares, err := d.Patch(d.Global.Apply(inserted, deleted), a, inserted, deleted)
		if err != nil {
			t.Fatal(err)
		}
		for i, share := range shares {
			if share == nil {
				continue
			}
			written := 0
			for _, tr := range append(share.Inserted, share.Deleted...) {
				if fs, fo := a.FragmentOf(tr.S), a.FragmentOf(tr.O); fs != fo {
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
// two names no fragment letter claims (WithVertices places those).
var (
	deltaNames = []string{"a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3", "x1", "x2"}
	deltaPreds = []string{"p", "q", "r"}
)

// TestApplyDeltaChain is patch-on-patch ≡ from-scratch: 250 seeded
// set-semantics deltas, each applied to the previous step's patched
// fragments (never to a fresh Build), over a base graph with duplicate
// edge instances. The vocabulary is small enough that vertices keep
// appearing and vanishing and self-loops come and go.
func TestApplyDeltaChain(t *testing.T) {
	g, d, mk := deltaFixture(t)
	c := newDeltaChain(t, g, d)
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
		g, d, mk := deltaFixture(t)
		c := newDeltaChain(t, g, d)
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
