package gstored

import (
	"context"
	"fmt"
	"sort"
	"testing"
)

// dupDB builds a database whose {?x knows ?y} projection onto ?y carries
// known duplicates: {b×2, c×3}.
func dupDB(t *testing.T) *DB {
	t.Helper()
	g := NewGraph()
	for s, o := range map[string]string{"a1": "b", "a2": "b", "a3": "c", "a4": "c", "a5": "c"} {
		g.AddIRIs("http://ex/"+s, "http://ex/knows", "http://ex/"+o)
	}
	db, err := Open(g, Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryDistinctEndToEnd is the headline regression through the full
// SPARQL text path: SELECT DISTINCT must return a set. Before this fix
// the parsed flag was discarded and the server returned duplicates for a
// query it claimed to understand.
func TestQueryDistinctEndToEnd(t *testing.T) {
	db := dupDB(t)
	plain, err := db.Query(`SELECT ?y WHERE { ?x <http://ex/knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != 5 {
		t.Fatalf("plain query: %d rows, want the 5-row multiset", plain.Len())
	}
	res, err := db.Query(`SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := db.Rows(res)
	if len(rows) != 2 {
		t.Fatalf("SELECT DISTINCT: %d rows, want 2", len(rows))
	}
	got := []string{rows[0][0], rows[1][0]}
	sort.Strings(got)
	want := []string{"<http://ex/b>", "<http://ex/c>"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("distinct values = %v, want %v", got, want)
	}
}

// TestQueryLimitOffsetEndToEnd pins LIMIT/OFFSET through the text path —
// both used to die with "unexpected trailing input".
func TestQueryLimitOffsetEndToEnd(t *testing.T) {
	db := dupDB(t)
	for _, c := range []struct {
		src  string
		want int
	}{
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 3`, 3},
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 0`, 0},
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } OFFSET 4`, 1},
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 2 OFFSET 4`, 1},
		{`SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 1`, 1},
		{`SELECT ?y WHERE { ?x <http://ex/knows> ?y } OFFSET 100`, 0},
	} {
		res, err := db.Query(c.src)
		if err != nil {
			t.Errorf("Query(%q): %v", c.src, err)
			continue
		}
		if res.Len() != c.want {
			t.Errorf("Query(%q): %d rows, want %d", c.src, res.Len(), c.want)
		}
	}
}

// TestQueryStreamEndToEnd drives the streaming facade: rows arrive
// through emit, LIMIT stops the run early, and the result retains stats
// only.
func TestQueryStreamEndToEnd(t *testing.T) {
	db := dupDB(t)
	var n int
	q, err := db.Parse(`SELECT DISTINCT ?y WHERE { ?x <http://ex/knows> ?y } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.QueryGraphStreamContext(context.Background(), q,
		func(row Row) bool {
			n++
			if len(row) != 1 {
				t.Errorf("projected row width = %d, want 1", len(row))
			}
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || res.Stats.NumMatches != 1 {
		t.Errorf("emitted %d rows (stats %d), want 1", n, res.Stats.NumMatches)
	}
	if !res.Stats.EarlyStop {
		t.Error("LIMIT 1 over 5 matches should stop the engine early")
	}
	if res.Rows != nil {
		t.Error("streaming result must not retain rows")
	}
}
