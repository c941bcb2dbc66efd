package store_test

import (
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
	d, err := fragment.BuildWith(global, partition.Hash{}, 12)
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
		frag.Store.MatchFunc(q, opts, func(store.Binding) bool { rows++; return true })
	}
	if rows == 0 {
		b.Fatal("LQ2 matched nothing in the fragment")
	}
}

// BenchmarkIndexGC is what the stores' indexes cost every garbage
// collection: LUBM(32)'s global store and its 12 hash fragments are held
// live while runtime.GC runs. It reports ns per forced collection and the
// live heap after it (live-B); CI logs both with no threshold.
func BenchmarkIndexGC(b *testing.B) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 32})
	global := store.FromGraph(ds.Graph)
	d, err := fragment.BuildWith(global, partition.Hash{}, 12)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	b.ResetTimer()
	for range b.N {
		runtime.GC()
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc), "live-B")
	runtime.KeepAlive(d)
}
