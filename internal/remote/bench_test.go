package remote

import (
	"context"
	"testing"

	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// BenchmarkPartialReplyWire measures the match section of a partial
// reply: each site's LocalSite.PartialEvalBatches reply for LQ1 and LQ7 on
// LUBM(8), hash-partitioned over 12 sites, is computed once; an operation
// encodes every site's reply as a final frame, decodes it, and checks
// the set's shape (partial.Check) as the client does. bytes/match is
// the frames' size over the matches they carry; bytes/request is the size
// of the partial-evaluation request each site receives, without the
// stage-0 union (the §IX-priced candidate sets, which travel unchanged).
func BenchmarkPartialReplyWire(b *testing.B) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 8})
	st := store.FromGraph(ds.Graph)
	a, err := partition.Hash{}.Partition(st, 12)
	if err != nil {
		b.Fatal(err)
	}
	d, err := fragment.Build(st, a)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range []string{"LQ1", "LQ7"} {
		bq, err := ds.Query(name)
		if err != nil {
			b.Fatal(err)
		}
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			b.Fatal(err)
		}
		replies := make([]*response, len(d.Fragments))
		matches, requestBytes := 0, 0
		for i, f := range d.Fragments {
			requestBytes += len((&request{Op: opPartial, Site: i, Epoch: 1, Query: q}).appendTo(nil))
			rep, err := cluster.NewLocalSite(i, f, 1).PartialEvalBatches(context.Background(), cluster.PartialRequest{Query: q}, func([][]rdf.TermID) bool { return true })
			if err != nil {
				b.Fatal(err)
			}
			replies[i] = &response{Done: true, LocalMatches: rep.LocalMatches, Set: rep.Set}
			matches += rep.Set.Len()
		}
		b.Run(name, func(b *testing.B) {
			var buf []byte
			bytes := 0
			for n := 0; n < b.N; n++ {
				bytes = 0
				for _, r := range replies {
					buf = r.appendTo(buf[:0])
					bytes += len(buf)
					var got response
					if err := got.decode(buf); err != nil {
						b.Fatal(err)
					}
					if err := partial.Check(q, &got.Set); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(bytes)/float64(max(matches, 1)), "bytes/match")
			b.ReportMetric(float64(requestBytes)/float64(len(d.Fragments)), "bytes/request")
		})
	}
}
