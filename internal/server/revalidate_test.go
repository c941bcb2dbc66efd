package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"gstored"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// revalidationQueries are the reads of TestRevalidationInterleaving: the
// shapes revalidation must get right.
var revalidationQueries = []string{
	`SELECT ?x ?z WHERE { ?x <http://ex/p0> ?y . ?y <http://ex/p1> ?z }`,
	`SELECT ?s ?p WHERE { ?s ?p <http://ex/v1> }`,
	`SELECT * WHERE { ?x ?p ?y . ?z ?p <http://ex/v2> }`,
	`SELECT * WHERE { ?x ?p ?y . ?y ?p ?z }`,
	`SELECT ?x ?p WHERE { ?x ?p <http://ex/v0> . ?x ?p <http://ex/v1> }`,
	`SELECT DISTINCT ?x WHERE { ?x <http://ex/p0> ?y } LIMIT 2 OFFSET 1`,
	`SELECT ?x ?w WHERE { ?x <http://ex/p1> ?y . ?z <http://ex/p0> ?w }`,
	`SELECT ?o WHERE { <http://ex/fresh> <http://ex/p1> ?o }`,
	`SELECT * WHERE { ?x ?p ?y . ?y <http://ex/p2> ?p }`,
	`SELECT ?y WHERE { <http://ex/v0> <http://ex/p0> ?y . ?y ?q <http://ex/v3> }`,
}

// revalidationTriples is the universe the interleaving test writes: five
// entity vertices, the three predicates as subjects too, and one subject
// (fresh) no initial triple and no dictionary entry names.
func revalidationTriples() []string {
	var out []string
	for _, s := range []string{"v0", "v1", "v2", "v3", "v4", "p0", "p2", "fresh"} {
		for _, p := range []string{"p0", "p1", "p2"} {
			for _, o := range []string{"v0", "v1", "v2", "v3", "p0"} {
				out = append(out, fmt.Sprintf("<http://ex/%s> <http://ex/%s> <http://ex/%s>", s, p, o))
			}
		}
	}
	return out
}

// solutions renders q's full solution multiset in st: one line per match
// (vertex and variable bindings), sorted. A match binds a variable's
// vertex and label occurrences separately, and its Vars hold the label,
// so each vertex whose variable also labels an edge is matched under a
// variable of its own: the same search, with every vertex's binding in
// Vars.
func solutions(st *store.Store, q *gstored.QueryGraph) []string {
	split := *q
	split.Vertices = slices.Clone(q.Vertices)
	split.Vars = slices.Clone(q.Vars)
	for _, ev := range q.EdgeVars() {
		for i, v := range split.Vertices {
			if v.Var == ev {
				split.Vertices[i].Var = len(split.Vars)
				split.Vars = append(split.Vars, q.Vars[ev]+"'")
			}
		}
	}
	var out []string
	for _, b := range st.Match(&split) {
		vertices := make([]rdf.TermID, len(split.Vertices))
		for i, v := range split.Vertices {
			vertices[i] = v.Const
			if v.IsVar() {
				vertices[i] = b.Vars[v.Var]
			}
		}
		out = append(out, fmt.Sprint(vertices, b.Vars[:len(q.Vars)]))
	}
	slices.Sort(out)
	return out
}

// TestRevalidationInterleaving drives seeded random INSERT DATA / DELETE
// DATA on a small graph between reads. Every answer — every HIT above
// all — must equal a fresh width-1 execution serialized the same way.
// Around each update the test also checks the database's test itself,
// with a deadline nothing reaches, against the definition: it must report
// a compiled query unchanged exactly when the query's full solution
// multiset is equal in the stores before and after.
func TestRevalidationInterleaving(t *testing.T) {
	ctx := context.Background()
	universe := revalidationTriples()
	for seed := int64(1); seed <= 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := gstored.NewGraph()
		for _, i := range r.Perm(len(universe))[:30] {
			if !strings.HasPrefix(universe[i], "<http://ex/fresh>") {
				f := strings.Fields(universe[i])
				g.AddIRIs(strings.Trim(f[0], "<>"), strings.Trim(f[1], "<>"), strings.Trim(f[2], "<>"))
			}
		}
		db, err := gstored.Open(g, gstored.Config{Sites: 3, EvalWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, ts := newTestServer(t, db, Config{Writable: true, CacheEntries: 64})
		hits := 0
		for step := 0; step < 150; step++ {
			if r.Intn(4) == 0 {
				op := "INSERT"
				if r.Intn(2) == 0 {
					op = "DELETE"
				}
				var body []string
				for i := 1 + r.Intn(3); i > 0; i-- {
					body = append(body, universe[r.Intn(len(universe))]+" .")
				}
				compiled := make([]*gstored.QueryGraph, len(revalidationQueries))
				want := make([][]string, len(compiled))
				before := db.Distributed().Global
				for i, text := range revalidationQueries {
					if compiled[i], err = db.ParseReadOnly(text); err != nil {
						t.Fatal(err)
					}
					want[i] = solutions(before, compiled[i])
				}
				e0 := db.Epoch()
				if resp, _ := postUpdate(t, ts.URL, op+" DATA { "+strings.Join(body, " ")+" }"); resp.StatusCode != http.StatusOK {
					t.Fatalf("seed %d step %d: update status %d", seed, step, resp.StatusCode)
				}
				e, unchanged := db.EpochChange()
				if e == e0 {
					continue // the update netted to nothing
				}
				after := db.Distributed().Global
				for i, q := range compiled {
					same := slices.Equal(want[i], solutions(after, q))
					if got := unchanged(q, time.Now().Add(time.Minute)); got != same {
						t.Fatalf("seed %d step %d: %s DATA %v: unchanged(%s) = %v, solutions equal = %v",
							seed, step, op, body, revalidationQueries[i], got, same)
					}
				}
				continue
			}
			text := revalidationQueries[r.Intn(len(revalidationQueries))]
			resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(text))
			if err != nil {
				t.Fatal(err)
			}
			got, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d step %d: status %d: %s", seed, step, resp.StatusCode, got)
			}
			q, err := db.ParseReadOnly(text)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.QueryGraphContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			var fresh bytes.Buffer
			if err := WriteResultsJSON(&fresh, db.Graph.Dict, db.Columns(q), res.EachProjected); err != nil {
				t.Fatal(err)
			}
			xc := resp.Header.Get("X-Cache")
			if xc == "HIT" {
				hits++
			}
			if !bytes.Equal(got, fresh.Bytes()) {
				t.Fatalf("seed %d step %d: %s answered (X-Cache %s)\n%s\nbut a fresh execution answers\n%s", seed, step, text, xc, got, fresh.Bytes())
			}
		}
		kept, dropped := srv.metrics.CacheRevalidated[revalidationKept].Load(), srv.metrics.CacheRevalidated[revalidationDropped].Load()
		t.Logf("seed %d: %d hits; revalidation kept %d entries, dropped %d", seed, hits, kept, dropped)
		if hits == 0 || kept == 0 || dropped == 0 {
			t.Errorf("seed %d: %d hits, %d entries kept and %d dropped across updates: the interleaving did not exercise revalidation", seed, hits, kept, dropped)
		}
	}
}

// TestRevalidationFallsBackToFlush pins when the cache is flushed whole
// instead of revalidated: the new epoch was made by a repartition, or by
// more than one update since the last read.
func TestRevalidationFallsBackToFlush(t *testing.T) {
	for name, swap := range map[string]func(t *testing.T, base string){
		"repartition": func(t *testing.T, base string) {
			if resp, _ := postRepartition(t, base, `{"strategy": "hash", "k": 2}`); resp.StatusCode != http.StatusOK {
				t.Fatalf("repartition status %d", resp.StatusCode)
			}
		},
		"two updates": func(t *testing.T, base string) {
			for _, op := range []string{"INSERT", "DELETE"} {
				if resp, _ := postUpdate(t, base, op+` DATA { <http://ex/x> <http://ex/unrelated> <http://ex/y> }`); resp.StatusCode != http.StatusOK {
					t.Fatalf("%s status %d", op, resp.StatusCode)
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			srv, ts := newTestServer(t, testDB(t), Config{Writable: true, CacheEntries: 64})
			getJSON(t, ts.URL, knowsChain)
			swap(t, ts.URL)
			if resp, _ := getJSON(t, ts.URL, knowsChain); resp.Header.Get("X-Cache") != "MISS" {
				t.Errorf("X-Cache = %q, want MISS after a flush", resp.Header.Get("X-Cache"))
			}
			m := &srv.metrics
			if got := m.CacheFlushes.Load(); got != 1 {
				t.Errorf("gstored_cache_flushes_total = %d, want 1", got)
			}
			if k, d := m.CacheRevalidated[revalidationKept].Load(), m.CacheRevalidated[revalidationDropped].Load(); k+d != 0 {
				t.Errorf("revalidation ran (kept %d, dropped %d); the epoch it would cross was not made by one update", k, d)
			}
		})
	}
}
