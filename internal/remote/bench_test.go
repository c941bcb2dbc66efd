package remote

import (
	"context"
	"testing"

	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// partialReplies is one query's partial-evaluation replies from every
// site, as final frames.
type partialReplies struct {
	name         string
	q            *query.Graph
	replies      []*response
	matches      int
	requestBytes int // the sites' partial requests, without the stage-0 union
}

// lubmPartialReplies computes each site's LocalSite.PartialEvalBatches
// reply for LQ1 and LQ7 on LUBM(8), hash-partitioned over 12 sites.
func lubmPartialReplies(tb testing.TB) []partialReplies {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 8})
	st := store.FromGraph(ds.Graph)
	a, err := partition.Hash{}.Partition(st, 12)
	if err != nil {
		tb.Fatal(err)
	}
	d, err := fragment.Build(st, a)
	if err != nil {
		tb.Fatal(err)
	}
	var out []partialReplies
	for _, name := range []string{"LQ1", "LQ7"} {
		bq, err := ds.Query(name)
		if err != nil {
			tb.Fatal(err)
		}
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			tb.Fatal(err)
		}
		p := partialReplies{name: name, q: q}
		for i, f := range d.Fragments {
			p.requestBytes += len((&request{Op: opPartial, Site: i, Epoch: 1, Query: q}).appendTo(nil))
			rep, err := cluster.NewLocalSite(i, f, 1).PartialEvalBatches(context.Background(), cluster.PartialRequest{Query: q}, func([][]rdf.TermID) bool { return true })
			if err != nil {
				tb.Fatal(err)
			}
			p.replies = append(p.replies, &response{Done: true, Set: rep.Set})
			p.matches += rep.Set.Len()
		}
		out = append(out, p)
	}
	return out
}

// TestPartialReplyBytesPerMatch holds the match section's encoding to
// what coding each match as its changes from the one before buys: the
// sites' final frames for LQ1 and LQ7 average at most 4.5 bytes a match
// (3.79 and 3.73 with it, 7.18 and 7.76 when every field travels whole).
func TestPartialReplyBytesPerMatch(t *testing.T) {
	for _, p := range lubmPartialReplies(t) {
		bytes := 0
		for _, r := range p.replies {
			bytes += len(r.appendTo(nil))
		}
		if p.matches == 0 {
			t.Fatalf("%s: no partial matches to ship", p.name)
		}
		if per := float64(bytes) / float64(p.matches); per > 4.5 {
			t.Errorf("%s: %d bytes for %d matches, %.2f a match; want at most 4.5", p.name, bytes, p.matches, per)
		}
	}
}

// BenchmarkPartialReplyWire measures the match section of a partial
// reply over lubmPartialReplies' fixture: an operation encodes every
// site's reply as a final frame — each match as the fields that changed
// since the match before it — decodes it, and checks the set's shape
// (partial.Check) as the client does. bytes/match is the frames' size
// over the matches they carry; bytes/request is the size of the
// partial-evaluation request each site receives, without the stage-0
// union (the §IX-priced candidate sets, which travel unchanged).
func BenchmarkPartialReplyWire(b *testing.B) {
	for _, p := range lubmPartialReplies(b) {
		b.Run(p.name, func(b *testing.B) {
			var buf []byte
			bytes := 0
			for n := 0; n < b.N; n++ {
				bytes = 0
				for _, r := range p.replies {
					buf = r.appendTo(buf[:0])
					bytes += len(buf)
					var got response
					if err := got.decode(buf); err != nil {
						b.Fatal(err)
					}
					if err := partial.Check(p.q, &got.Set); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(bytes)/float64(max(p.matches, 1)), "bytes/match")
			b.ReportMetric(float64(p.requestBytes)/float64(len(p.replies)), "bytes/request")
		})
	}
}
