package engine

import (
	"context"
	"testing"

	"gstored/internal/paperexample"
	"gstored/internal/query"
	"gstored/internal/trace"
)

// TestFragmentStatsConsistency: the per-fragment breakdown must add back
// up to the aggregate Stats columns in every mode — the whole point of
// Fragments is that the aggregates are its row sums.
func TestFragmentStatsConsistency(t *testing.T) {
	ex, e := paperEngine(t)
	for _, mode := range allModes {
		res, err := e.Execute(ex.Query, Config{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		s := res.Stats
		if len(s.Fragments) != 3 {
			t.Fatalf("%v: %d fragment rows, want 3 (one per site)", mode, len(s.Fragments))
		}
		var local, pms, retained int
		var ship int64
		for i, fs := range s.Fragments {
			if fs.Site != i {
				t.Errorf("%v: fragment row %d has site %d, want sorted by site", mode, i, fs.Site)
			}
			local += fs.LocalMatches
			pms += fs.PartialMatches
			retained += fs.RetainedPartialMatches
			ship += fs.ShipmentBytes
		}
		if local != s.NumLocalMatches {
			t.Errorf("%v: fragment local sum %d != %d", mode, local, s.NumLocalMatches)
		}
		if pms != s.NumPartialMatches {
			t.Errorf("%v: fragment PM sum %d != %d", mode, pms, s.NumPartialMatches)
		}
		if retained != s.NumRetainedPartialMatches {
			t.Errorf("%v: fragment retained sum %d != %d", mode, retained, s.NumRetainedPartialMatches)
		}
		if pms == 0 {
			t.Errorf("%v: paper query enumerates partial matches at the sites", mode)
		}
		// Site-attributed traffic excludes coordinator broadcasts (query
		// init, candidate unions, dead-mapping bitmaps), so it must be a
		// positive strict subset of the total.
		if ship <= 0 || ship > s.TotalShipment {
			t.Errorf("%v: fragment shipment sum %d outside (0, %d]", mode, ship, s.TotalShipment)
		}
	}
}

// TestStarFragmentStats: the star fast path attributes its local matches
// and result shipment per site too.
func TestStarFragmentStats(t *testing.T) {
	ex, e := paperEngine(t)
	q := query.NewBuilder(ex.Graph.Dict).
		Triple(query.Var("x"), query.IRI(paperexample.PredMainInterest), query.Var("i")).
		Triple(query.Var("x"), query.IRI(paperexample.PredName), query.Var("n")).
		MustBuild()
	res, err := e.Execute(q, Config{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if !s.StarFastPath {
		t.Fatal("star not detected")
	}
	if len(s.Fragments) != 3 {
		t.Fatalf("%d fragment rows, want 3", len(s.Fragments))
	}
	var local int
	for _, fs := range s.Fragments {
		local += fs.LocalMatches
		if fs.PartialMatches != 0 || fs.RetainedPartialMatches != 0 {
			t.Errorf("site %d: star path reports partial matches: %+v", fs.Site, fs)
		}
	}
	if local != s.NumLocalMatches || local == 0 {
		t.Errorf("fragment local sum %d, want %d (nonzero)", local, s.NumLocalMatches)
	}
}

// TestExecuteRecordsTraceSpans: a trace attached to the context collects
// per-site partial spans and the coordinator-side LEC/assembly spans;
// executions without a trace record nothing and still succeed.
func TestExecuteRecordsTraceSpans(t *testing.T) {
	ex, e := paperEngine(t)
	tr := trace.New()
	ctx := trace.NewContext(context.Background(), tr)
	res, err := e.ExecuteContext(ctx, ex.Query, Config{Mode: Full})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StarFastPath {
		t.Fatal("paper query is not a star")
	}
	byStage := map[string]int{}
	siteSpans := map[int]bool{}
	for _, sp := range tr.Spans() {
		byStage[sp.Stage]++
		if sp.Stage == "partial" {
			siteSpans[sp.Fragment] = true
		}
		if sp.DurationMicros < 0 || sp.StartMicros < 0 {
			t.Errorf("span %+v has negative timing", sp)
		}
	}
	if byStage["partial"] != 3 || byStage["candidates"] != 3 {
		t.Errorf("per-site spans = %v, want 3 partial + 3 candidates", byStage)
	}
	if byStage["lec"] != 1 || byStage["assembly"] != 1 {
		t.Errorf("coordinator spans = %v, want 1 lec + 1 assembly", byStage)
	}
	for site := 0; site < 3; site++ {
		if !siteSpans[site] {
			t.Errorf("no partial span for site %d", site)
		}
	}
}
