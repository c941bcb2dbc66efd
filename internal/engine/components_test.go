package engine

import (
	"context"
	"reflect"
	"testing"

	"gstored/internal/candidates"
	"gstored/internal/query"
)

// accounting is what an execution's Stats count and ship, with every
// clock reading dropped: what must add up across components.
type accounting struct {
	Counts                [6]int
	Stages                [NumStages]int64
	Init, Total, Messages int64
	Vars                  []candidates.VarStat
	Framing               int64
	Frags                 []FragmentStats
}

func accountingOf(s Stats) accounting {
	a := accounting{
		Counts: [6]int{s.NumPartialMatches, s.NumLECFeatures, s.NumRetainedPartialMatches,
			s.JoinAttempts, s.NumCrossingMatches, s.NumLocalMatches},
		Init: s.InitShipment, Total: s.TotalShipment, Messages: s.Messages,
		Vars: s.CandidateVars, Framing: s.CandidateFraming,
	}
	for st := range a.Stages {
		a.Stages[st] = s.Stages[st].Shipment
	}
	for _, f := range s.Fragments {
		f.Wall, f.Busy, f.Transport = 0, 0, 0
		a.Frags = append(a.Frags, f)
	}
	return a
}

// add folds b into a field by field, per-fragment rows by site.
func (a *accounting) add(b accounting) {
	for i := range a.Counts {
		a.Counts[i] += b.Counts[i]
	}
	for i := range a.Stages {
		a.Stages[i] += b.Stages[i]
	}
	a.Init += b.Init
	a.Total += b.Total
	a.Messages += b.Messages
	a.Vars = append(a.Vars, b.Vars...)
	a.Framing += b.Framing
	if a.Frags == nil {
		a.Frags = make([]FragmentStats, len(b.Frags))
		copy(a.Frags, b.Frags)
		return
	}
	for i, f := range b.Frags {
		d := &a.Frags[i]
		d.LocalMatches += f.LocalMatches
		d.PartialMatches += f.PartialMatches
		d.RetainedPartialMatches += f.RetainedPartialMatches
		d.ShipmentBytes += f.ShipmentBytes
		d.WireBytes += f.WireBytes
		d.Tasks += f.Tasks
	}
}

// TestComponentAccounting: a disconnected query's counters, per-stage
// shipments, totals and per-fragment rows are the field-wise sum of
// executing each of its components alone, in every mode at widths 1 and
// 4. Every component of both queries has rows, so no component is
// skipped behind an empty cross product.
func TestComponentAccounting(t *testing.T) {
	env := newEquivEnv(t)
	g, _, dup := dupExample(t)
	cases := []struct {
		name string
		e    *Engine
		q    *query.Graph
	}{
		{"equivalence/disconnected", env.eng, env.shape(t, "disconnected", nil)},
		{"modifiers/disconnected", dup, query.NewBuilder(g.Dict).
			Triple(query.Var("x"), query.IRI("http://ex/knows"), query.Var("y")).
			Triple(query.Var("m"), query.IRI("http://ex/color"), query.Var("n")).
			Select("y", "n").MustBuild()},
	}
	for _, c := range cases {
		comps := query.SplitComponents(c.q)
		if len(comps) < 2 {
			t.Fatalf("%s: %d components, want a disconnected query", c.name, len(comps))
		}
		for _, mode := range allModes {
			for _, width := range []int{1, 4} {
				cfg := Config{Mode: mode, EvalWorkers: width}
				whole, err := c.e.ExecuteContext(context.Background(), c.q, cfg)
				if err != nil {
					t.Fatalf("%s %v width %d: %v", c.name, mode, width, err)
				}
				var sum accounting
				for i, comp := range comps {
					res, err := c.e.ExecuteContext(context.Background(), comp.Query, cfg)
					if err != nil {
						t.Fatalf("%s %v width %d component %d: %v", c.name, mode, width, i, err)
					}
					if res.Len() == 0 {
						t.Fatalf("%s: component %d has no rows", c.name, i)
					}
					sum.add(accountingOf(res.Stats))
				}
				if got := accountingOf(whole.Stats); !reflect.DeepEqual(got, sum) {
					t.Errorf("%s %v width %d:\n whole %+v\n   sum %+v", c.name, mode, width, got, sum)
				}
			}
		}
	}
}
