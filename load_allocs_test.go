package gstored

import (
	"bytes"
	"math"
	"testing"

	"gstored/internal/partition"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// TestLoadAllocs holds the load path to allocations that the data's
// distinct terms and its shape decide, not its lines (aim 1: a
// deterministic counter, not a clock). Over LUBM(8) rendered as
// N-Triples, rdf.ReadNTriples may allocate a constant per distinct term
// (its key, with which the Term's strings share memory) plus a log term
// for the growth of the triple and term slices and the dictionary's map;
// a line that names no new term allocates nothing. store.FromGraph and
// Hash.Partition are held to fixed counts: per predicate, per adjacency
// shard and per table of the placement map, never per triple or vertex.
func TestLoadAllocs(t *testing.T) {
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, workload.LUBM(workload.LUBMConfig{Universities: 8})); err != nil {
		t.Fatal(err)
	}
	var g *rdf.Graph
	read := testing.AllocsPerRun(2, func() {
		var err error
		if g, err = rdf.ReadNTriples(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	var st *store.Store
	index := testing.AllocsPerRun(2, func() { st = store.FromGraph(g) })
	assign := testing.AllocsPerRun(2, func() {
		if _, err := (partition.Hash{}).Partition(st, 12); err != nil {
			t.Fatal(err)
		}
	})
	terms, lines := float64(g.Dict.Len()), float64(g.Len())
	t.Logf("LUBM(8): %.0f lines, %.0f distinct terms; ReadNTriples %.0f allocations, FromGraph %.0f, Hash.Partition %.0f",
		lines, terms, read, index, assign)
	// Measured at LUBM(8): 4,304 lines and 2,665 distinct terms cost
	// ReadNTriples 2,729 allocations (one per term and 64 ≈ 5.3 ×
	// log₂ lines), FromGraph 2,086 (2,048 of them the 2 × 256 adjacency
	// shards) and Hash.Partition 12. Each bound is 1.25× its count.
	const perTerm, perDoubling, slack = 1, 5.3, 1.25
	if bound := slack * (perTerm*terms + perDoubling*math.Log2(lines)); read > bound {
		t.Errorf("ReadNTriples: %.0f allocations for %.0f lines of %.0f distinct terms; want at most %.0f", read, lines, terms, bound)
	}
	if bound := slack * 2086; index > bound {
		t.Errorf("store.FromGraph: %.0f allocations; want at most %.0f", index, bound)
	}
	if bound := slack * 12; assign > bound {
		t.Errorf("Hash.Partition: %.0f allocations; want at most %.0f", assign, bound)
	}
}
