package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partition"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

var allModes = []Mode{Basic, LA, LO, Full}

func paperEngine(t *testing.T) (*paperexample.Example, *Engine) {
	t.Helper()
	ex := paperexample.New()
	d, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	return ex, New(d)
}

// centralizedRows evaluates q on the global store for ground truth, in
// the canonical order an ordered result has.
func centralizedRows(st *store.Store, q *query.Graph) []Row {
	var rows []Row
	for _, b := range st.Match(q) {
		rows = append(rows, Row(b.Vars))
	}
	slices.SortFunc(rows, slices.Compare[Row])
	return rows
}

// TestPaperQueryAllModes: all four ablation modes return exactly the four
// crossing matches of the running example, matching the centralized
// answer.
func TestPaperQueryAllModes(t *testing.T) {
	ex, e := paperEngine(t)
	want := centralizedRows(ex.Store, ex.Query)
	if len(want) != 4 {
		t.Fatalf("centralized answer has %d rows, want 4", len(want))
	}
	for _, mode := range allModes {
		res, err := e.Execute(ex.Query, Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Rows; !sameRows(got, want) {
			t.Errorf("%v rows:\n got %v\nwant %v", mode, got, want)
		}
		if res.Stats.NumCrossingMatches != 4 || res.Stats.NumLocalMatches != 0 {
			t.Errorf("%v: crossing=%d local=%d, want 4/0",
				mode, res.Stats.NumCrossingMatches, res.Stats.NumLocalMatches)
		}
		if res.Stats.StarFastPath {
			t.Errorf("%v: paper query is not a star", mode)
		}
	}
}

// TestStatsShapeAcrossModes encodes the paper's per-mode expectations:
// Basic/LA ship all 8 partial matches; LO/Full prune PM2_3; Full also
// spends candidate shipment; LEC assembly never attempts more joins than
// basic.
func TestStatsShapeAcrossModes(t *testing.T) {
	ex, e := paperEngine(t)
	stats := map[Mode]Stats{}
	for _, mode := range allModes {
		res, err := e.Execute(ex.Query, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		stats[mode] = res.Stats
	}
	if stats[Basic].NumPartialMatches != 8 || stats[LA].NumPartialMatches != 8 {
		t.Errorf("Basic/LA partial matches = %d/%d, want 8",
			stats[Basic].NumPartialMatches, stats[LA].NumPartialMatches)
	}
	if stats[Basic].NumRetainedPartialMatches != 8 {
		t.Errorf("Basic retains %d, want all 8", stats[Basic].NumRetainedPartialMatches)
	}
	if stats[LO].NumRetainedPartialMatches != 7 {
		t.Errorf("LO retains %d partial matches, want 7 (PM2_3 pruned)",
			stats[LO].NumRetainedPartialMatches)
	}
	if stats[Full].NumPartialMatches != 7 {
		t.Errorf("Full computes %d partial matches, want 7 (candidate filter kills PM2_3)",
			stats[Full].NumPartialMatches)
	}
	if stats[LO].Stages[StageLEC].Shipment == 0 || stats[LO].NumLECFeatures == 0 {
		t.Error("LO should ship LEC features")
	}
	if stats[Basic].Stages[StageLEC].Shipment != 0 || stats[LA].Stages[StageLEC].Shipment != 0 {
		t.Error("Basic/LA must not ship LEC features")
	}
	if stats[Full].Stages[StageCandidates].Shipment == 0 {
		t.Error("Full should ship candidate vectors")
	}
	if stats[Basic].Stages[StageCandidates].Shipment != 0 {
		t.Error("Basic must not ship candidate vectors")
	}
	if stats[LA].JoinAttempts > stats[Basic].JoinAttempts {
		t.Errorf("LA join attempts %d > Basic %d",
			stats[LA].JoinAttempts, stats[Basic].JoinAttempts)
	}
	if stats[LO].Stages[StageAssembly].Shipment >= stats[LA].Stages[StageAssembly].Shipment {
		t.Errorf("LO assembly shipment %d should be below LA's %d (one PM pruned)",
			stats[LO].Stages[StageAssembly].Shipment, stats[LA].Stages[StageAssembly].Shipment)
	}
	for _, mode := range allModes {
		s := stats[mode]
		if s.TotalShipment <= 0 || s.Messages <= 0 || s.TotalTime <= 0 {
			t.Errorf("%v: missing totals %+v", mode, s)
		}
	}
}

// TestStarFastPath: a star query runs with no partial evaluation and no
// LEC machinery in any mode, like LQ2/LQ4/LQ5 in Table I.
func TestStarFastPath(t *testing.T) {
	ex, e := paperEngine(t)
	q := query.NewBuilder(ex.Graph.Dict).
		Triple(query.Var("x"), query.IRI(paperexample.PredMainInterest), query.Var("i")).
		Triple(query.Var("x"), query.IRI(paperexample.PredName), query.Var("n")).
		MustBuild()
	want := centralizedRows(ex.Store, q)
	for _, mode := range allModes {
		res, err := e.Execute(q, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Stats.StarFastPath {
			t.Fatalf("%v: star not detected", mode)
		}
		if got := res.Rows; !sameRows(got, want) {
			t.Errorf("%v star rows:\n got %v\nwant %v", mode, got, want)
		}
		if res.Stats.NumPartialMatches != 0 || res.Stats.Stages[StageLEC].Shipment != 0 ||
			res.Stats.Stages[StageCandidates].Shipment != 0 || res.Stats.Stages[StageAssembly].Shipment != 0 {
			t.Errorf("%v: star path leaked distributed work: %+v", mode, res.Stats)
		}
	}
}

// distributedRun evaluates the connected query q through component
// alone, outside the sink run hands it: a cancellation the caller's out
// causes surfaces as the returned error.
func distributedRun(ctx context.Context, e *Engine, q *query.Graph, cfg Config, out rowOut) (Stats, error) {
	if err := validateForExec(q, &cfg); err != nil {
		return Stats{}, err
	}
	stats := Stats{Mode: cfg.Mode, Fragments: make([]FragmentStats, len(e.sites))}
	h := e.hold(ctx)
	defer h.cancel(nil)
	_, err := e.component(h, q, e.graph.Global.Plan(q), cfg, pool.New(cfg.EvalWorkers), &stats, out)
	return stats, err
}

func TestProjection(t *testing.T) {
	ex, e := paperEngine(t)
	res, err := e.Execute(ex.Query, Config{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	var proj []Row
	res.EachProjected(func(p Row) bool {
		proj = append(proj, slices.Clone(p))
		return true
	})
	if len(proj) != 4 {
		t.Fatalf("%d projected rows", len(proj))
	}
	for _, p := range proj {
		if len(p) != 2 { // SELECT ?p2 ?l
			t.Fatalf("projected width %d, want 2", len(p))
		}
		if p[0] != ex.V[6] && p[0] != ex.V[12] {
			t.Errorf("?p2 = %d, want 006 or 012", p[0])
		}
	}
}

func TestInvalidQueries(t *testing.T) {
	_, e := paperEngine(t)
	if _, err := e.Execute(&query.Graph{}, Config{}); err == nil {
		t.Error("empty query should fail")
	}
}

// TestDisconnectedQueryCrossProduct: components are evaluated separately
// and recombined (Section II-A).
func TestDisconnectedQueryCrossProduct(t *testing.T) {
	ex, e := paperEngine(t)
	q := query.NewBuilder(ex.Graph.Dict).
		Triple(query.Var("x"), query.IRI(paperexample.PredInfluencedBy), query.Var("y")).
		Triple(query.Var("a"), query.IRI(paperexample.PredBirthPlace), query.Var("b")).
		MustBuild()
	want := centralizedRows(ex.Store, q)
	if len(want) != 2 { // 2 influencedBy × 1 birthPlace
		t.Fatalf("centralized rows = %d, want 2", len(want))
	}
	for _, mode := range allModes {
		res, err := e.Execute(q, Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if got := res.Rows; !sameRows(got, want) {
			t.Errorf("%v:\n got %v\nwant %v", mode, got, want)
		}
	}
}

// TestDisconnectedSharedEdgeVar: a predicate variable shared across
// components must bind consistently.
func TestDisconnectedSharedEdgeVar(t *testing.T) {
	ex, e := paperEngine(t)
	q := query.NewBuilder(ex.Graph.Dict).
		Triple(query.Var("x"), query.Var("p"), query.Var("y")).
		Triple(query.Var("a"), query.Var("p"), query.Var("b")).
		MustBuild()
	want := centralizedRows(ex.Store, q)
	res, err := e.Execute(q, Config{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows; !sameRows(got, want) {
		t.Errorf("shared edge var:\n got %d rows\nwant %d rows", len(got), len(want))
	}
}

func TestNoResultQuery(t *testing.T) {
	ex, e := paperEngine(t)
	q := query.NewBuilder(ex.Graph.Dict).
		Triple(query.Var("x"), query.IRI(paperexample.PredBirthPlace), query.Var("y")).
		Triple(query.Var("y"), query.IRI(paperexample.PredBirthPlace), query.Var("z")).
		MustBuild()
	for _, mode := range allModes {
		res, err := e.Execute(q, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 0 {
			t.Errorf("%v: got %d rows for impossible query", mode, len(res.Rows))
		}
	}
}

// TestAllModesEqualCentralizedProperty: on random graphs, random
// partitionings, and all four modes, the distributed answer equals the
// centralized one — the headline correctness property of the system.
func TestAllModesEqualCentralizedProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		nv := 5 + r.Intn(10)
		ne := 10 + r.Intn(30)
		for i := 0; i < ne; i++ {
			g.AddIRIs(fmt.Sprintf("v%d", r.Intn(nv)), fmt.Sprintf("p%d", r.Intn(2)), fmt.Sprintf("v%d", r.Intn(nv)))
		}
		st := store.FromGraph(g)
		// Mix of query shapes: path, triangle-ish, star-breaker.
		var q *query.Graph
		switch r.Intn(3) {
		case 0:
			q = query.NewBuilder(g.Dict).
				Triple(query.Var("x"), query.IRI("p0"), query.Var("y")).
				Triple(query.Var("y"), query.IRI("p1"), query.Var("z")).
				MustBuild()
		case 1:
			q = query.NewBuilder(g.Dict).
				Triple(query.Var("x"), query.IRI("p0"), query.Var("y")).
				Triple(query.Var("y"), query.IRI("p0"), query.Var("z")).
				Triple(query.Var("z"), query.IRI("p1"), query.Var("x")).
				MustBuild()
		default:
			q = query.NewBuilder(g.Dict).
				Triple(query.Var("x"), query.IRI("p0"), query.Var("y")).
				Triple(query.Var("z"), query.IRI("p1"), query.Var("y")).
				Triple(query.Var("z"), query.IRI("p0"), query.Var("w")).
				MustBuild()
		}
		want := centralizedRows(st, q)

		k := 2 + r.Intn(3)
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for _, v := range st.Vertices() {
			a.Frag[v] = r.Intn(k)
		}
		d, err := fragment.Build(st, a)
		if err != nil {
			return false
		}
		e := New(d)
		for _, mode := range allModes {
			res, err := e.Execute(q, Config{Mode: mode})
			if err != nil {
				return false
			}
			if !sameRows(res.Rows, want) {
				t.Logf("seed %d mode %v:\n got %v\nwant %v", seed, mode, res.Rows, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAllPartitionersEqualCentralized: the engine is partitioning-tolerant
// (Section I): every strategy yields the same answers.
func TestAllPartitionersEqualCentralized(t *testing.T) {
	ex := paperexample.New()
	want := centralizedRows(ex.Store, ex.Query)
	for _, s := range []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}} {
		for _, k := range []int{1, 2, 3, 5} {
			d, err := fragment.BuildWith(ex.Store, s, k)
			if err != nil {
				t.Fatalf("%s/%d: %v", s.Name(), k, err)
			}
			e := New(d)
			res, err := e.Execute(ex.Query, Config{Mode: Full})
			if err != nil {
				t.Fatalf("%s/%d: %v", s.Name(), k, err)
			}
			if got := res.Rows; !sameRows(got, want) {
				t.Errorf("%s k=%d:\n got %v\nwant %v", s.Name(), k, got, want)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{Basic: "gStoreD-Basic", LA: "gStoreD-LA", LO: "gStoreD-LO", Full: "gStoreD"}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}
