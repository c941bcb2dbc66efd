package engine

import (
	"testing"

	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// TestSemijoinDecision prices one hand-built site per outcome of the
// semijoin rule, over a three-vertex path whose matches cost 20 bytes
// each, and checks the LEC and assembly stages' bytes and the messages to
// the byte, with each site's decision, mappings reported and matches
// killed. Each match is its own feature.
func TestSemijoinDecision(t *testing.T) {
	b := query.NewBuilder(rdf.NewDictionary())
	b.Triple(query.Var("x"), query.IRI("p"), query.Var("y"))
	b.Triple(query.Var("y"), query.IRI("p"), query.Var("z"))
	q := b.MustBuild()

	type site struct {
		matches, mappings, sampled, sampledDead int
		sampleDead, dead                        int // matches, the sample's dead among the full verdict's
		unsampled                               int32
	}
	sites := []site{
		// Skipped: 10 mappings cost 162 bytes, its 5 matches 100.
		{matches: 5, mappings: 10, sampled: 1, dead: 2, unsampled: 1},
		// Exchanged in one round: 2 sampled mappings are under the floor;
		// 4 mappings cost 65 bytes against 400.
		{matches: 20, mappings: 4, sampled: 2, sampledDead: 1, sampleDead: 2, dead: 5, unsampled: 1},
		// Sampled: a tenth of the sample is dead, so the other 30 mappings
		// (484 bytes) would kill 90 × 20 × 0.1 = 180 bytes.
		{matches: 100, mappings: 40, sampled: 10, sampledDead: 1, sampleDead: 10, dead: 30, unsampled: 1},
		// Exchanged in two rounds: half the sample is dead, so the rest
		// would kill 80 × 20 × (1 − 0.5²) = 1,200 bytes.
		{matches: 100, mappings: 40, sampled: 10, sampledDead: 5, sampleDead: 20, dead: 50, unsampled: 2},
		// No partial match: no decision.
		{},
	}
	ship := &shipCounts{q: q, local: make([]int, len(sites))}
	sj := &ship.semijoin
	var sets []partial.Set // one singleton feature a match, of set i at site i
	for i, s := range sites {
		sj.Mappings = append(sj.Mappings, s.mappings)
		sj.Sampled = append(sj.Sampled, s.sampled)
		sj.SampledDead = append(sj.SampledDead, s.sampledDead)
		sets = append(sets, partial.Set{Frag: i, Stride: 3, Sign: make([]uint64, s.matches), Vec: make([]rdf.TermID, 3*s.matches)})
		for j := range s.matches {
			sj.Live = append(sj.Live, j >= s.dead)
			sj.SampleDead = append(sj.SampleDead, j < s.sampleDead)
			sj.Unsampled = append(sj.Unsampled, s.unsampled)
		}
	}
	ship.fs = lec.Singletons(q, sets)
	stats := Stats{Fragments: make([]FragmentStats, len(sites))}
	modelShipment(&stats, ship)

	want := []struct {
		decision         Decision
		mappings, killed int
		bytes            int64
	}{
		{Skipped, 0, 0, 100},
		{Exchanged, 4, 5, 64 + 15*20},
		{Sampled, 10, 10, 160 + 90*20},
		{Exchanged, 40, 50, 160 + 480 + 50*20},
		{NoDecision, 0, 0, 0},
	}
	for i, w := range want {
		f := stats.Fragments[i]
		if f.Semijoin != w.decision || f.SemijoinMappings != w.mappings || f.SemijoinKilled != w.killed || f.ShipmentBytes != w.bytes {
			t.Errorf("site %d: %v, %d mappings, %d killed, %d bytes; want %v, %d, %d, %d", i,
				f.Semijoin, f.SemijoinMappings, f.SemijoinKilled, f.ShipmentBytes, w.decision, w.mappings, w.killed, w.bytes)
		}
	}
	// LEC: 0 + (64 + 1) + (160 + 2) + (160 + 2 + 480 + 4) bytes in 0 + 2 +
	// 2 + 4 messages; assembly: 5 + 15 + 90 + 50 matches of 20 bytes;
	// besides, the query to 5 sites and one gathered local-row message.
	if got := stats.Stages[StageLEC].Shipment; got != 873 {
		t.Errorf("lec = %d bytes, want 873", got)
	}
	if got := stats.Stages[StageAssembly].Shipment; got != 3200 {
		t.Errorf("asm = %d bytes, want 3200", got)
	}
	if got, want := stats.Messages, int64(5+1+8+160); got != want {
		t.Errorf("msgs = %d, want %d", got, want)
	}
	if got, want := stats.TotalShipment, int64(5*querySize(q)+873+3200); got != want {
		t.Errorf("total = %d bytes, want %d", got, want)
	}
}
