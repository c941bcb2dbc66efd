package fragment

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// snapshot is a deep copy of everything a Fragment is: V_i, the crossing
// list in order, the edge count, and its store read through every index
// (Triples walks out, In walks in, ByPred and Stats the per-predicate
// tables). Two fragments are the same iff their snapshots are DeepEqual,
// and a snapshot shares no memory with the fragment it was taken from.
type snapshot struct {
	Internal         []rdf.TermID
	Crossing         []rdf.Triple
	NumInternalEdges int
	NumExtended      int
	Triples, In      []rdf.Triple
	ByPred           map[rdf.TermID][]rdf.Triple
	Stats            map[rdf.TermID]store.PredStat
}

func snapshotOf(f *Fragment) snapshot {
	s := snapshot{
		Internal:         f.InternalVertices(),
		Crossing:         append([]rdf.Triple{}, f.Crossing...),
		NumInternalEdges: f.NumInternalEdges,
		NumExtended:      f.NumExtended(),
		Triples:          f.Store.Triples(),
		In:               []rdf.Triple{},
		ByPred:           map[rdf.TermID][]rdf.Triple{},
		Stats:            map[rdf.TermID]store.PredStat{},
	}
	for _, o := range f.Store.Vertices() {
		for _, he := range f.Store.In(o) {
			s.In = append(s.In, rdf.Triple{S: he.V, P: he.P, O: o})
		}
	}
	for _, p := range f.Store.Predicates() {
		s.ByPred[p] = append([]rdf.Triple{}, f.Store.TriplesWith(p)...)
		s.Stats[p], _ = f.Store.Stats().Pred(p)
	}
	return s
}

// checkDeltaEquivalent applies the delta incrementally and compares
// against a full Build over the post-delta store: the two must be the
// same fragment by fragment — crossing lists in the same order, stores
// with the same triples and per-predicate statistics — and the
// incremental result must pass CheckInvariants on its own.
func checkDeltaEquivalent(t *testing.T, d *Distributed, a *partition.Assignment, inserted, deleted []rdf.Triple) *Distributed {
	t.Helper()
	newGlobal := d.Global.Apply(inserted, deleted)
	got, touched, err := d.ApplyDelta(newGlobal, a, inserted, deleted)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("post-delta invariants: %v", err)
	}
	want, err := Build(newGlobal, a)
	if err != nil {
		t.Fatalf("reference Build: %v", err)
	}
	if !sort.IntsAreSorted(touched) {
		t.Errorf("touched IDs not sorted: %v", touched)
	}
	isTouched := make(map[int]bool)
	for _, id := range touched {
		if id < 0 || id >= len(d.Fragments) {
			t.Fatalf("touched ID %d out of range", id)
		}
		isTouched[id] = true
	}
	for i := range want.Fragments {
		gf, wf := got.Fragments[i], want.Fragments[i]
		if !isTouched[i] && gf != d.Fragments[i] {
			t.Errorf("fragment %d is not listed as touched but was replaced", i)
		}
		if gs, ws := snapshotOf(gf), snapshotOf(wf); !reflect.DeepEqual(gs, ws) {
			t.Errorf("fragment %d after delta = %+v\nfrom-scratch Build  = %+v", i, gs, ws)
		}
		if !reflect.DeepEqual(gf.Store.Stats(), wf.Store.Stats()) {
			t.Errorf("fragment %d store statistics differ from a from-scratch Build", i)
		}
	}
	return got
}

// deltaChain drives a sequence of deltas through ApplyDelta, each on top
// of the last one's result, and checks two things after every step: the
// newest generation equals Build of the post-delta store, and every
// earlier generation still equals the snapshot taken while it was
// current — a write into an adjacency list, a Crossing slice or a V_i
// map shared between generations shows up as a changed old snapshot.
type deltaChain struct {
	dict *rdf.Dictionary
	d    *Distributed
	gens []*Distributed
	was  [][]snapshot
}

func newDeltaChain(g *rdf.Graph, d *Distributed) *deltaChain {
	c := &deltaChain{dict: g.Dict}
	c.push(d)
	return c
}

func (c *deltaChain) push(d *Distributed) {
	snaps := make([]snapshot, len(d.Fragments))
	for i, f := range d.Fragments {
		snaps[i] = snapshotOf(f)
	}
	c.d, c.gens, c.was = d, append(c.gens, d), append(c.was, snaps)
}

func (c *deltaChain) step(t *testing.T, inserted, deleted []rdf.Triple) {
	t.Helper()
	a := c.d.Assignment.WithVertices(c.dict, endpointsOf(append(append([]rdf.Triple{}, inserted...), deleted...)))
	c.push(checkDeltaEquivalent(t, c.d, a, inserted, deleted))
	for g, d := range c.gens {
		for i, f := range d.Fragments {
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
		return rdf.Triple{S: g.Dict.EncodeIRI(s), P: g.Dict.EncodeIRI(p), O: g.Dict.EncodeIRI(o)}
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
	got := checkDeltaEquivalent(t, d, d.Assignment, []rdf.Triple{mk("a1", "p", "a2")}, nil)
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
	fresh := rdf.Triple{S: g.Dict.EncodeIRI("ghost"), P: g.Dict.EncodeIRI("p"), O: g.Dict.EncodeIRI("a1")}
	newGlobal := d.Global.Apply([]rdf.Triple{fresh}, nil)
	if _, _, err := d.ApplyDelta(newGlobal, d.Assignment, []rdf.Triple{fresh}, nil); err == nil {
		t.Error("ApplyDelta accepted an endpoint the assignment does not cover")
	}
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
						S: g.Dict.EncodeIRI(fmt.Sprintf("http://ex/v%d", rng.Intn(24))),
						P: g.Dict.EncodeIRI(fmt.Sprintf("http://ex/p%d", rng.Intn(3))),
						O: g.Dict.EncodeIRI(fmt.Sprintf("http://ex/v%d", rng.Intn(24))),
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
	c := newDeltaChain(g, d)
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
		c := newDeltaChain(g, d)
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
