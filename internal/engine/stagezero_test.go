package engine

import (
	"context"
	"slices"
	"testing"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/partition"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// slotless is a site whose stage-0 reply decodes with no set for query
// vertex qv, as a worker's reply may.
type slotless struct {
	cluster.Site
	qv int
}

func (s slotless) Candidates(ctx context.Context, req cluster.CandidatesRequest) (cluster.CandidatesReply, error) {
	rep, err := s.Site.Candidates(ctx, req)
	if err != nil {
		return rep, err
	}
	sv := &candidates.SiteVectors{Sets: slices.Clone(rep.Vectors.Sets), Rejects: rep.Vectors.Rejects}
	sv.Sets[s.qv] = nil
	rep.Vectors, err = candidates.Decode(sv.AppendBinary(nil))
	return rep, err
}

// TestUnionOfAMissingSlotFiltersNothing: when one site's reply holds no
// set for a variable, the union holds none either (form dropped) and the
// sites run that variable unfiltered, so Full answers Basic's rows. A
// union of the other sites' sets alone would reject the silent site's
// candidates wherever they are extended.
func TestUnionOfAMissingSlotFiltersNothing(t *testing.T) {
	ds := workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	d, err := buildWith(store.FromGraph(ds.Graph), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	bq, err := ds.Query("LQ1")
	if err != nil {
		t.Fatal(err)
	}
	q, err := bq.Parse(ds.Graph.Dict)
	if err != nil {
		t.Fatal(err)
	}
	basic, err := New(d).ExecuteContext(context.Background(), q, Config{Mode: Basic, EvalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := New(d).ExecuteContext(context.Background(), q, Config{Mode: Full, EvalWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range full.Stats.CandidateVars {
		if v.Form == candidates.Dropped {
			t.Fatalf("LQ1 drops ?%s with every reply whole: the test needs every union broadcast", v.Var)
		}
	}
	for qv, v := range q.Vertices {
		if !v.IsVar() {
			continue
		}
		for i := range d.Fragments {
			sites := cluster.LocalSites(d, 1)
			sites[i] = slotless{sites[i], qv}
			res, err := NewWithSites(d, sites).ExecuteContext(context.Background(), q, Config{Mode: Full, EvalWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRows(res.Rows, basic.Rows) {
				t.Errorf("?%s missing at site %d: %d rows, Basic answers %d", q.Vars[v.Var], i, len(res.Rows), len(basic.Rows))
			}
			for _, st := range res.Stats.CandidateVars {
				if dropped := st.Form == candidates.Dropped; dropped != (st.Var == q.Vars[v.Var]) {
					t.Errorf("?%s missing at site %d: ?%s went down %v", q.Vars[v.Var], i, st.Var, st.Form)
				}
			}
		}
	}
}
