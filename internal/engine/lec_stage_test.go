package engine

import (
	"context"
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

// lq7Fixture is LQ7 on LUBM(32), hash-partitioned over 12 sites and run
// in Full mode — the bench's crossing data and layout: the crossing
// query whose allocations TestLQ7Allocs pins and whose LEC stage
// BenchmarkLECStage measures. It is built once per test binary.
type lq7Fixture struct {
	eng *Engine
	q   *query.Graph
	req cluster.PartialRequest // stage 1's request, candidate union included
	pms []*partial.Match       // every site's reply, in site order
}

var lq7 = sync.OnceValues(func() (*lq7Fixture, error) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 32})
	d, err := fragment.BuildWith(store.FromGraph(ds.Graph), partition.Hash{}, 12)
	if err != nil {
		return nil, err
	}
	bq, err := ds.Query("LQ7")
	if err != nil {
		return nil, err
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		return nil, err
	}
	fx := &lq7Fixture{eng: New(d), q: q}
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
	fx.pms, err = fx.partialEval()
	return fx, err
})

func loadLQ7(tb testing.TB) *lq7Fixture {
	tb.Helper()
	fx, err := lq7()
	if err != nil {
		tb.Fatal(err)
	}
	return fx
}

// partialEval is stage 1 of Full mode at width 1: each site's partial
// evaluation under the fixture's candidate union, replies in site order.
func (fx *lq7Fixture) partialEval() ([]*partial.Match, error) {
	var pms []*partial.Match
	for _, s := range fx.eng.sites {
		rep, err := s.PartialEval(context.Background(), fx.req, func([]rdf.TermID) bool { return true })
		if err != nil {
			return nil, err
		}
		pms = append(pms, rep.Matches...)
	}
	return pms, nil
}

// TestLQ7Allocs pins the heap traffic of LQ7's crossing path, each figure
// against the parent of the change that interned mappings once per query
// and carved partial matches from slabs, measured the same way there:
// partial evaluation at most 0.1 allocations per partial match (parent
// 4.07); lec.Compute and lec.Walk allocations that do not grow with the
// feature count, checked at n and 2n matches (parent: 3.0 and 1.7 more per
// added feature); and one width-1 Execute at most a quarter of the
// parent's.
func TestLQ7Allocs(t *testing.T) {
	fx := loadLQ7(t)
	const (
		perMatch      = 0.1
		growth        = 0.01 // allocations per feature added
		parentExecute = 94109
	)
	pe := testing.AllocsPerRun(3, func() {
		if _, err := fx.partialEval(); err != nil {
			t.Fatal(err)
		}
	})
	if got := pe / float64(len(fx.pms)); got > perMatch {
		t.Errorf("partial evaluation: %.0f allocations for %d partial matches, %.3f each; want at most %v", pe, len(fx.pms), got, perMatch)
	}

	type run struct{ features, compute, walk float64 }
	var runs []run
	for _, n := range []int{len(fx.pms) / 2, len(fx.pms)} {
		pms := fx.pms[:n]
		var features []*lec.Feature
		r := run{compute: testing.AllocsPerRun(5, func() { features, _ = lec.Compute(pms) })}
		r.walk = testing.AllocsPerRun(5, func() { lec.Walk(features, fx.q, false, nil, nil) })
		r.features = float64(len(features))
		runs = append(runs, r)
	}
	added := runs[1].features - runs[0].features
	if added < 1000 {
		t.Fatalf("doubling the matches added %.0f features; the fixture no longer measures growth", added)
	}
	for _, c := range []struct {
		name   string
		lo, hi float64
	}{{"lec.Compute", runs[0].compute, runs[1].compute}, {"lec.Walk", runs[0].walk, runs[1].walk}} {
		t.Logf("%s: %.0f allocations over %.0f features, %.0f over %.0f", c.name, c.lo, runs[0].features, c.hi, runs[1].features)
		if (c.hi-c.lo)/added > growth {
			t.Errorf("%s: %.0f allocations over %.0f features but %.0f over %.0f; want at most %v more per added feature",
				c.name, c.lo, runs[0].features, c.hi, runs[1].features, growth)
		}
	}

	ex := testing.AllocsPerRun(3, func() {
		if _, err := fx.eng.Execute(fx.q, Config{Mode: Full, EvalWorkers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("partial evaluation %.0f, Execute %.0f allocations", pe, ex)
	if ex > parentExecute/4 {
		t.Errorf("Execute(LQ7): %.0f allocations, want at most a quarter of the parent's %d", ex, parentExecute)
	}
}

// BenchmarkLECStage is the coordinator's share of LQ7 over one set of
// replies: lec.Compute, lec.Walk and the expansion of the walk's
// combinations. CI logs its ns/op and allocs/op with no threshold.
func BenchmarkLECStage(b *testing.B) {
	fx := loadLQ7(b)
	rows := 0
	opts := assembly.Options{Emit: func(assembly.Result) bool { rows++; return true }}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		features, _ := lec.Compute(fx.pms)
		assembly.Expand(fx.pms, features, lec.Walk(features, fx.q, false, nil, nil), fx.q, opts)
	}
	if rows == 0 {
		b.Fatal("LQ7 assembled no crossing match")
	}
}
