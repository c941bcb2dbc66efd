package engine

import (
	"context"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"gstored/internal/assembly"
	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// crossingFixture is one crossing query on LUBM(32), hash-partitioned
// over 12 sites and run in Full mode — the bench's crossing data and
// layout: LQ7, whose allocations TestLQ7Allocs pins, and LQ1, the query
// the semijoin prunes most; BenchmarkLECStage measures the LEC stage of
// both. Each is built once per test binary, over one shared engine.
type crossingFixture struct {
	eng  *Engine
	q    *query.Graph
	req  cluster.PartialRequest // stage 1's request, candidate union included
	sets []partial.Set          // every site's reply, in site order
	n    int                    // the partial matches in sets
}

// buildWith partitions st with strat into k fragments and builds them.
func buildWith(st *store.Store, strat partition.Strategy, k int) (*fragment.Distributed, error) {
	a, err := strat.Partition(st, k)
	if err != nil {
		return nil, err
	}
	return fragment.Build(st, a)
}

var lubm32 = sync.OnceValues(func() (*workload.Dataset, *Engine) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 32})
	d, err := buildWith(store.FromGraph(ds.Graph), partition.Hash{}, 12)
	if err != nil {
		panic(err)
	}
	return ds, New(d)
})

var crossingFixtures = map[string]func() (*crossingFixture, error){
	"LQ7": sync.OnceValues(func() (*crossingFixture, error) { return newCrossingFixture("LQ7") }),
	"LQ1": sync.OnceValues(func() (*crossingFixture, error) { return newCrossingFixture("LQ1") }),
}

func newCrossingFixture(name string) (*crossingFixture, error) {
	ds, eng := lubm32()
	bq, err := ds.Query(name)
	if err != nil {
		return nil, err
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		return nil, err
	}
	fx := &crossingFixture{eng: eng, q: q}
	// Stage 0: the candidate union the partial evaluation filters by.
	vecs := make([]*candidates.SiteVectors, len(fx.eng.sites))
	creq := cluster.CandidatesRequest{Query: q, Bits: candidates.DefaultBits}
	for i, s := range fx.eng.sites {
		rep, err := s.Candidates(context.Background(), creq)
		if err != nil {
			return nil, err
		}
		vecs[i] = rep.Vectors
	}
	union, err := candidates.Union(vecs, q, creq.Bits)
	if err != nil {
		return nil, err
	}
	fx.req = cluster.PartialRequest{Query: q, Union: union}
	fx.sets, err = fx.partialEval()
	for _, s := range fx.sets {
		fx.n += s.Len()
	}
	return fx, err
}

func loadCrossing(tb testing.TB, name string) *crossingFixture {
	tb.Helper()
	fx, err := crossingFixtures[name]()
	if err != nil {
		tb.Fatal(err)
	}
	return fx
}

// partialEval is stage 1 of Full mode at width 1: each site's partial
// evaluation under the fixture's candidate union, replies in site order.
func (fx *crossingFixture) partialEval() ([]partial.Set, error) {
	sets := make([]partial.Set, len(fx.eng.sites))
	for i, s := range fx.eng.sites {
		rep, err := s.PartialEvalBatches(context.Background(), fx.req, func([][]rdf.TermID) bool { return true })
		if err != nil {
			return nil, err
		}
		sets[i] = rep.Set
	}
	return sets, nil
}

// TestLQ7Allocs pins the heap traffic of LQ7's crossing path, each figure
// against the parent of the change that interned mappings once per query
// and carved partial matches from slabs, measured the same way there:
// partial evaluation at most 0.1 allocations per partial match (parent
// 4.07); lec.Group (lec.Compute there) and lec.Walk allocations that do
// not grow with the feature count, checked over half the sites' replies
// and over all of them (parent: 3.0 and 1.7 more per added feature); and
// one width-1 Execute at most a quarter of the parent's. The grouping's bytes over all of LQ7's matches
// are held against the parent of the change that made features columns
// over the matches' vectors, where lec.Compute allocated 2,859,147 bytes.
func TestLQ7Allocs(t *testing.T) {
	fx := loadCrossing(t, "LQ7")
	const (
		perMatch      = 0.1
		growth        = 0.01 // allocations per feature added
		parentExecute = 94109
		parentGroup   = 2859147 // bytes
	)
	pe := testing.AllocsPerRun(3, func() {
		if _, err := fx.partialEval(); err != nil {
			t.Fatal(err)
		}
	})
	if got := pe / float64(fx.n); got > perMatch {
		t.Errorf("partial evaluation: %.0f allocations for %d partial matches, %.3f each; want at most %v", pe, fx.n, got, perMatch)
	}

	// The first half of the sites' replies, then all of them.
	type run struct{ features, compute, walk float64 }
	var runs []run
	for _, k := range []int{len(fx.sets) / 2, len(fx.sets)} {
		sets := fx.sets[:k]
		var fs *lec.Features
		r := run{compute: testing.AllocsPerRun(5, func() { fs = lec.Group(fx.q, sets) })}
		r.walk = testing.AllocsPerRun(5, func() { lec.Walk(fs, fx.q, false, nil, nil, nil) })
		r.features = float64(fs.Len())
		runs = append(runs, r)
	}
	added := runs[1].features - runs[0].features
	if added < 1000 {
		t.Fatalf("doubling the matches added %.0f features; the fixture no longer measures growth", added)
	}
	for _, c := range []struct {
		name   string
		lo, hi float64
	}{{"lec.Group", runs[0].compute, runs[1].compute}, {"lec.Walk", runs[0].walk, runs[1].walk}} {
		t.Logf("%s: %.0f allocations over %.0f features, %.0f over %.0f", c.name, c.lo, runs[0].features, c.hi, runs[1].features)
		if (c.hi-c.lo)/added > growth {
			t.Errorf("%s: %.0f allocations over %.0f features but %.0f over %.0f; want at most %v more per added feature",
				c.name, c.lo, runs[0].features, c.hi, runs[1].features, growth)
		}
	}

	// Under -race, slices.Grow allocates a second buffer beside the one
	// it returns, so the byte count holds only without the detector.
	gb := bytesPerRun(5, func() { lec.Group(fx.q, fx.sets) })
	t.Logf("lec.Group: %.0f bytes over %d matches", gb, fx.n)
	if gb > parentGroup/2 && !raceEnabled() {
		t.Errorf("lec.Group: %.0f bytes, want at most half of the parent's %d", gb, parentGroup)
	}

	ex := testing.AllocsPerRun(3, func() {
		if _, err := fx.eng.ExecuteContext(context.Background(), fx.q, Config{Mode: Full, EvalWorkers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("partial evaluation %.0f, Execute %.0f allocations", pe, ex)
	if ex > parentExecute/4 {
		t.Errorf("Execute(LQ7): %.0f allocations, want at most a quarter of the parent's %d", ex, parentExecute)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the heap bytes one call
// of f allocates, averaged over runs calls after a warm-up call, with
// GOMAXPROCS at 1 as there.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// BenchmarkLECStage is the coordinator's share of LQ7 and LQ1 over one
// set of replies each: lec.Group and lec.Walk with the
// assembly.Expansion it drives, with the walk's join attempts, the features its
// semijoin keeps live, the mappings in its sample and the features the
// sample kills. CI logs ns/op, B/op, allocs/op, attempts/op, live/op,
// sampled/op and sample_killed/op with no threshold.
func BenchmarkLECStage(b *testing.B) {
	for _, name := range []string{"LQ7", "LQ1"} {
		b.Run(name, func(b *testing.B) {
			fx := loadCrossing(b, name)
			rows := 0
			opts := assembly.Options{Emit: func(assembly.Result) bool { rows++; return true }}
			var walk lec.PruneResult
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				fs := lec.Group(fx.q, fx.sets)
				x := assembly.NewExpansion(fx.sets, fs, opts)
				walk = lec.Walk(fs, fx.q, false, nil, nil, x.Sink)
				x.Stats(walk)
			}
			if rows == 0 {
				b.Fatalf("%s assembled no crossing match", name)
			}
			live, sampled, killed := 0, 0, 0
			for i, l := range walk.Live {
				if l {
					live++
				}
				if walk.SampleDead[i] {
					killed++
				}
			}
			for _, n := range walk.Sampled {
				sampled += n
			}
			b.ReportMetric(float64(walk.Attempts), "attempts/op")
			b.ReportMetric(float64(live), "live/op")
			b.ReportMetric(float64(sampled), "sampled/op")
			b.ReportMetric(float64(killed), "sample_killed/op")
		})
	}
}
