package gstored

import (
	"bytes"
	"context"
	"slices"
	"testing"
)

// queryMode parses text and runs it under an explicit mode.
func queryMode(db *DB, text string, mode Mode) (*Result, error) {
	q, err := db.Parse(text)
	if err != nil {
		return nil, err
	}
	return db.QueryGraphModeContext(context.Background(), q, mode)
}

func TestOpenAndQueryQuickstart(t *testing.T) {
	g := NewGraph()
	g.Add(IRI("http://ex/alice"), IRI("http://ex/knows"), IRI("http://ex/bob"))
	g.Add(IRI("http://ex/bob"), IRI("http://ex/knows"), IRI("http://ex/carol"))
	g.Add(IRI("http://ex/carol"), IRI("http://ex/name"), LangLiteral("Carol", "en"))

	db, err := Open(g, Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSites() != 3 {
		t.Errorf("sites = %d", db.NumSites())
	}
	res, err := db.Query(`SELECT ?x ?n WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/name> ?n }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := db.Rows(res)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0] != "<http://ex/bob>" || rows[0][1] != `"Carol"@en` {
		t.Errorf("row = %v", rows[0])
	}
	cols := db.Columns(res.Query)
	if len(cols) != 2 || cols[0] != "x" || cols[1] != "n" {
		t.Errorf("columns = %v", cols)
	}
}

func TestOpenStrategies(t *testing.T) {
	ds := GenerateLUBM(2)
	for _, strat := range []string{"hash", "semantic-hash", "metis", "best", ""} {
		db, err := Open(ds.Graph, Config{Sites: 4, Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if len(db.Costs) == 0 {
			t.Errorf("%s: no costs recorded", strat)
		}
		if strat == "best" && len(db.Costs) != 3 {
			t.Errorf("best should record 3 costs, got %d", len(db.Costs))
		}
	}
	if _, err := Open(ds.Graph, Config{Strategy: "nope"}); err == nil {
		t.Error("unknown strategy should error")
	}
}

func TestQueryModesAgree(t *testing.T) {
	ds := GenerateLUBM(2)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	bq, err := ds.Query("LQ6")
	if err != nil {
		t.Fatal(err)
	}
	var want []Row
	for i, mode := range []Mode{ModeBasic, ModeLA, ModeLO, ModeFull} {
		res, err := queryMode(db, bq.SPARQL, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if i == 0 {
			want = res.Rows
		} else if !slices.EqualFunc(res.Rows, want, slices.Equal[Row]) {
			t.Errorf("%v disagrees with other modes", mode)
		}
	}
}

func TestGenerators(t *testing.T) {
	if g := GenerateLUBM(0); g.Graph.Len() == 0 || len(g.Queries) != 7 {
		t.Error("LUBM default generation broken")
	}
	if g := GenerateYAGO(0); g.Graph.Len() == 0 || len(g.Queries) != 4 {
		t.Error("YAGO default generation broken")
	}
	if g := GenerateBTC(0); g.Graph.Len() == 0 || len(g.Queries) != 7 {
		t.Error("BTC default generation broken")
	}
}

func TestNTriplesRoundTripThroughFacade(t *testing.T) {
	ds := GenerateLUBM(1)
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, ds.Graph); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Graph.Len() {
		t.Errorf("round trip %d -> %d triples", ds.Graph.Len(), back.Len())
	}
	// The re-read graph answers the same query identically.
	db1, err := Open(ds.Graph, Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	db2, err := Open(back, Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := ds.Queries[3].SPARQL // LQ4
	r1, err := db1.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db2.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Errorf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
}

func TestPartitionCostFacade(t *testing.T) {
	ds := GenerateLUBM(2)
	c, err := PartitionCost(ds.Graph, "hash", 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Cost <= 0 || c.NumCrossing == 0 {
		t.Errorf("cost = %+v", c)
	}
	if _, err := PartitionCost(ds.Graph, "bogus", 4); err == nil {
		t.Error("bogus strategy should error")
	}
}

func TestStatsExposed(t *testing.T) {
	ds := GenerateLUBM(2)
	db, err := Open(ds.Graph, Config{Sites: 4})
	if err != nil {
		t.Fatal(err)
	}
	bq, _ := ds.Query("LQ1")
	res, err := db.Query(bq.SPARQL)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.TotalShipment == 0 || s.TotalTime == 0 || s.NumPartialMatches == 0 {
		t.Errorf("stats incomplete: %+v", s)
	}
}
