package engine

import (
	"fmt"
	"reflect"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// shipmentPin is one execution's deterministic counters: §IX shipment
// bytes, then the work of the LEC and assembly stages.
type shipmentPin struct {
	total, msgs, cand, lec, asm int64
	frags                       []int64 // Fragments[i].ShipmentBytes
	// JoinAttempts, NumLECFeatures, NumRetainedPartialMatches,
	// NumCrossingMatches
	attempts, features, retained, crossing int
}

func pinOf(s Stats) shipmentPin {
	p := shipmentPin{
		total: s.TotalShipment, msgs: s.Messages,
		cand: s.CandidatesShipment, lec: s.LECShipment, asm: s.AssemblyShipment,
	}
	for _, fs := range s.Fragments {
		p.frags = append(p.frags, fs.ShipmentBytes)
	}
	p.attempts, p.features = s.JoinAttempts, s.NumLECFeatures
	p.retained, p.crossing = s.NumRetainedPartialMatches, s.NumCrossingMatches
	return p
}

// shipmentPins are the §IX model counters of in-process executions at
// EvalWorkers 1, captured from the commit before the metering moved out
// of the stages into one post-assembly function. They depend only on
// the data, the query and the mode, never on timing. The attempts column
// of the LA/LO/Full rows was re-captured once, when the LEC path became
// one feature-level walk on a side-split index: it now counts that walk's
// join steps (over every feature in LA and LO, over the candidate-filtered
// ones in Full) instead of a second, match-level walk over what pruning
// kept — fewer on LQ7 and the paper example, more on LQ1's LO/Full rows,
// whose old figure left the pruning walk's own steps uncounted.
//
// The cand, total and frags columns of the four Full rows (…/gStoreD)
// were re-captured once more, when stage 0 began to ship each candidate
// set in the smaller of its two encodings and to price it at its encoded
// length: every set here is a short list, so the flat 2 KiB per variable,
// site and direction gives way to paper 49,152 → 84 bytes, LQ1 49,152 →
// 368, LQ6 32,768 → 40 (two empty sets a message: the LUBM(1) slice has no
// second university) and LQ7 65,536 → 715; total and each fragment's share
// fall by exactly the stage's saving. No other column of those rows moved
// — on these small graphs the hashed filter already admitted no false
// candidate — and the Basic, LA and LO rows, which run no stage 0, are as
// they were.
var shipmentPins = map[string]shipmentPin{
	"paper/gStoreD-Basic": {808, 12, 0, 0, 496, []int64{180, 196, 120}, 38, 0, 8, 4},
	"paper/gStoreD-LA":    {808, 12, 0, 0, 496, []int64{180, 196, 120}, 5, 0, 8, 4},
	"paper/gStoreD-LO":    {914, 21, 0, 166, 436, []int64{243, 254, 102}, 5, 7, 7, 4},
	"paper/gStoreD":       {977, 26, 84, 145, 436, []int64{252, 265, 91}, 5, 6, 7, 4},
	"LQ1/gStoreD-Basic":   {7776, 122, 0, 0, 7488, []int64{1600, 1664, 1792, 2432}, 8254, 0, 117, 13},
	"LQ1/gStoreD-LA":      {7776, 122, 0, 0, 7488, []int64{1600, 1664, 1792, 2432}, 121, 0, 117, 13},
	"LQ1/gStoreD-LO":      {6725, 158, 0, 4389, 2048, []int64{1373, 1474, 1484, 2046}, 121, 117, 32, 13},
	"LQ1/gStoreD":         {4504, 97, 368, 1800, 2048, []int64{839, 975, 877, 1217}, 56, 48, 32, 13},
	"LQ2/gStoreD-Basic":   {3080, 8, 0, 0, 0, []int64{700, 720, 680, 660}, 0, 0, 0, 0},
	"LQ2/gStoreD-LA":      {3080, 8, 0, 0, 0, []int64{700, 720, 680, 660}, 0, 0, 0, 0},
	"LQ2/gStoreD-LO":      {3080, 8, 0, 0, 0, []int64{700, 720, 680, 660}, 0, 0, 0, 0},
	"LQ2/gStoreD":         {3080, 8, 0, 0, 0, []int64{700, 720, 680, 660}, 0, 0, 0, 0},
	"LQ6/gStoreD-Basic":   {320, 5, 0, 0, 0, []int64{0, 0, 0, 0}, 0, 0, 0, 0},
	"LQ6/gStoreD-LA":      {320, 5, 0, 0, 0, []int64{0, 0, 0, 0}, 0, 0, 0, 0},
	"LQ6/gStoreD-LO":      {320, 9, 0, 0, 0, []int64{0, 0, 0, 0}, 0, 0, 0, 0},
	"LQ6/gStoreD":         {360, 17, 40, 0, 0, []int64{5, 5, 5, 5}, 0, 0, 0, 0},
	"LQ7/gStoreD-Basic":   {19896, 304, 0, 0, 19576, []int64{4080, 7120, 4008, 4368}, 129830, 0, 299, 115},
	"LQ7/gStoreD-LA":      {19896, 304, 0, 0, 19576, []int64{4080, 7120, 4008, 4368}, 605, 0, 299, 115},
	"LQ7/gStoreD-LO":      {27938, 585, 0, 9154, 18464, []int64{5770, 9473, 5733, 6494}, 605, 294, 282, 115},
	"LQ7/gStoreD":         {28170, 578, 715, 8671, 18464, []int64{5623, 9409, 5623, 6495}, 595, 279, 282, 115},
}

// TestShipmentCountersPinned: in-process shipment accounting — total,
// messages, per-stage and per-fragment — is unchanged to the byte.
func TestShipmentCountersPinned(t *testing.T) {
	type run struct {
		name string
		e    *Engine
		q    *query.Graph
	}
	ex, pe := paperEngine(t)
	runs := []run{{"paper", pe, ex.Query}}

	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	d, err := fragment.BuildWith(store.FromGraph(ds.Graph), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	le := New(d)
	for _, name := range []string{"LQ1", "LQ2", "LQ6", "LQ7"} {
		bq, err := ds.Query(name)
		if err != nil {
			t.Fatal(err)
		}
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{name, le, q})
	}

	for _, r := range runs {
		for _, mode := range allModes {
			res, err := r.e.Execute(r.q, Config{Mode: mode, EvalWorkers: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", r.name, mode, err)
			}
			key := fmt.Sprintf("%s/%v", r.name, mode)
			got := pinOf(res.Stats)
			if want, ok := shipmentPins[key]; !ok || !reflect.DeepEqual(got, want) {
				t.Errorf("%q: {%d, %d, %d, %d, %d, %#v, %d, %d, %d, %d},", key, got.total, got.msgs, got.cand, got.lec, got.asm, got.frags, got.attempts, got.features, got.retained, got.crossing)
			}
		}
	}
}
