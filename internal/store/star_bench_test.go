package store_test

import (
	"fmt"
	"runtime"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// BenchmarkStarMatch is one site's share of the star path (§VIII-B): LQ2
// matched over one fragment of LUBM(32) hash-partitioned over 12 sites,
// the center confined to internal vertices by the star VertexFilter and
// the edges in the global store's plan order. CI logs its ns/op and
// allocs/op with no threshold.
func BenchmarkStarMatch(b *testing.B) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 32})
	global := store.FromGraph(ds.Graph)
	a, err := partition.Hash{}.Partition(global, 12)
	if err != nil {
		b.Fatal(err)
	}
	d, err := fragment.Build(global, a)
	if err != nil {
		b.Fatal(err)
	}
	bq, err := ds.Query("LQ2")
	if err != nil {
		b.Fatal(err)
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		b.Fatal(err)
	}
	center, ok := q.StarCenter()
	if !ok {
		b.Fatal("LQ2 is not a star")
	}
	frag := d.Fragments[0]
	opts := store.MatchOptions{
		VertexFilter: func(qv int, u rdf.TermID) bool { return qv != center || frag.IsInternal(u) },
		Order:        store.EdgeOrder(global.Plan(q)),
	}
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		frag.Store.MatchFunc(q, opts, func(batch [][]rdf.TermID) bool { rows += len(batch); return true })
	}
	if rows == 0 {
		b.Fatal("LQ2 matched nothing in the fragment")
	}
}

// BenchmarkIndexGC is what the stores' indexes cost every garbage
// collection: a LUBM graph's global store and its 12 hash fragments are
// held live while runtime.GC runs, at LUBM(32) and at LUBM(128). It
// reports ns per forced collection, the live heap after it (live-B), and
// fragments-B: live-B less the live heap with the global store alone,
// what the fragments add to it, where an adjacency index per fragment
// would show. CI logs all three with no threshold.
func BenchmarkIndexGC(b *testing.B) {
	for _, scale := range []int{32, 128} {
		b.Run(fmt.Sprintf("lubm%d", scale), func(b *testing.B) {
			global := store.FromGraph(workload.NewLUBM(workload.LUBMConfig{Universities: scale}).Graph)
			alone := liveHeap()
			a, err := partition.Hash{}.Partition(global, 12)
			if err != nil {
				b.Fatal(err)
			}
			d, err := fragment.Build(global, a)
			if err != nil {
				b.Fatal(err)
			}
			runtime.GC()
			b.ResetTimer()
			for range b.N {
				runtime.GC()
			}
			b.StopTimer()
			live := liveHeap()
			b.ReportMetric(float64(live), "live-B")
			b.ReportMetric(float64(live)-float64(alone), "fragments-B")
			runtime.KeepAlive(d)
		})
	}
}

// liveHeap is the heap a collection leaves live.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
