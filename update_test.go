package gstored

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/rdf"
)

// updateTestDB is a small social graph over 3 sites.
func updateTestDB(t *testing.T) *DB {
	t.Helper()
	g := NewGraph()
	g.AddIRIs("http://ex/alice", "http://ex/knows", "http://ex/bob")
	g.AddIRIs("http://ex/bob", "http://ex/knows", "http://ex/carol")
	g.AddIRIs("http://ex/carol", "http://ex/knows", "http://ex/alice")
	db, err := Open(g, Config{Sites: 3})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func rowsOf(t *testing.T, db *DB, q string) [][]string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return db.Rows(res)
}

// checkDBInvariants holds the live generation to Definition 1: the V_i
// partition the global store's vertices, and each fragment equals Build
// over the global store under that placement — the same V_i, crossing
// list, internal edge count and edge set.
func checkDBInvariants(t *testing.T, db *DB) {
	t.Helper()
	d := db.Distributed()
	a := &partition.Assignment{K: len(d.Fragments), Frag: map[rdf.TermID]int{}}
	for _, f := range d.Fragments {
		for _, v := range f.InternalVertices() {
			if prev, dup := a.Frag[v]; dup {
				t.Fatalf("post-update invariants: vertex %d internal to both %d and %d", v, prev, f.ID)
			}
			a.Frag[v] = f.ID
		}
	}
	want, err := fragment.Build(d.Global, a)
	if err != nil {
		t.Fatalf("post-update invariants: %v", err)
	}
	for i, f := range d.Fragments {
		w := want.Fragments[i]
		if !slices.Equal(f.InternalVertices(), w.InternalVertices()) || !slices.Equal(f.Crossing.Flat(), w.Crossing.Flat()) ||
			!slices.Equal(f.Store.Triples(), w.Store.Triples()) {
			t.Fatalf("post-update invariants: fragment %d is not Build's over the global store", i)
		}
	}
}

func TestUpdateInsertThenDelete(t *testing.T) {
	db := updateTestDB(t)
	const q = `SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/bob> }`
	if got := rowsOf(t, db, q); len(got) != 1 {
		t.Fatalf("pre-update rows = %v", got)
	}
	e0 := db.Epoch()

	stats, err := db.Update(context.Background(),
		`INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/bob> }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 || stats.Deleted != 0 {
		t.Errorf("stats = %+v", stats)
	}
	if db.Epoch() != e0+1 || stats.Epoch != e0+1 {
		t.Errorf("epoch = %d (stats %d), want %d", db.Epoch(), stats.Epoch, e0+1)
	}
	checkDBInvariants(t, db)
	if got := rowsOf(t, db, q); len(got) != 2 {
		t.Fatalf("post-insert rows = %v, want alice and dave", got)
	}
	if db.NumTriples() != 4 {
		t.Errorf("NumTriples = %d, want 4", db.NumTriples())
	}

	stats, err = db.Update(context.Background(),
		`DELETE DATA { <http://ex/dave> <http://ex/knows> <http://ex/bob> }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 1 || stats.Inserted != 0 {
		t.Errorf("delete stats = %+v", stats)
	}
	if db.Epoch() != e0+2 {
		t.Errorf("epoch = %d, want %d", db.Epoch(), e0+2)
	}
	checkDBInvariants(t, db)
	if got := rowsOf(t, db, q); len(got) != 1 {
		t.Fatalf("post-delete rows = %v", got)
	}
	if db.NumTriples() != 3 {
		t.Errorf("NumTriples = %d, want 3", db.NumTriples())
	}
}

// TestUpdateNoopKeepsEpoch: inserting a present triple or deleting an
// absent one must not produce a new generation — caches stay warm.
func TestUpdateNoopKeepsEpoch(t *testing.T) {
	db := updateTestDB(t)
	e0 := db.Epoch()
	for _, u := range []string{
		`INSERT DATA { <http://ex/alice> <http://ex/knows> <http://ex/bob> }`,
		`DELETE DATA { <http://ex/nobody> <http://ex/knows> <http://ex/noone> }`,
		// Net zero: insert and delete of the same absent triple.
		`INSERT DATA { <http://ex/x> <http://ex/p> <http://ex/y> } ;
		 DELETE DATA { <http://ex/x> <http://ex/p> <http://ex/y> }`,
	} {
		stats, err := db.Update(context.Background(), u)
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		if stats.Inserted != 0 || stats.Deleted != 0 || stats.Epoch != e0 {
			t.Errorf("%s: stats = %+v, want all-zero at epoch %d", u, stats, e0)
		}
	}
	if db.Epoch() != e0 {
		t.Errorf("epoch advanced to %d on no-op updates", db.Epoch())
	}
	// Deleting an existing triple after re-inserting it in the same
	// request is also net zero.
	if db.NumTriples() != 3 {
		t.Errorf("NumTriples = %d, want 3", db.NumTriples())
	}
}

// TestUpdateNoopDoesNotGrowDictionary: a request that nets to nothing —
// including inserts of never-seen terms cancelled within the same
// request — must not assign dictionary IDs; otherwise a writable
// endpoint leaks memory on no-op traffic. Failed updates must not grow
// it either.
func TestUpdateNoopDoesNotGrowDictionary(t *testing.T) {
	db := updateTestDB(t)
	before := db.Graph.Dict.Len()
	for i, u := range []string{
		// Insert-then-delete of fresh IRIs: empty net delta.
		`INSERT DATA { <http://ex/fresh1> <http://ex/freshp> <http://ex/fresh2> } ;
		 DELETE DATA { <http://ex/fresh1> <http://ex/freshp> <http://ex/fresh2> }`,
		// Delete of never-seen terms: no-op via Lookup.
		`DELETE DATA { <http://ex/fresh3> <http://ex/freshp> <http://ex/fresh4> }`,
	} {
		stats, err := db.Update(context.Background(), u)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Inserted != 0 || stats.Deleted != 0 {
			t.Fatalf("update %d stats = %+v, want no-op", i, stats)
		}
	}
	if got := db.Graph.Dict.Len(); got != before {
		t.Errorf("dictionary grew from %d to %d terms on no-op updates", before, got)
	}
	// A real insert does grow it — by exactly its surviving terms.
	if _, err := db.Update(context.Background(),
		`INSERT DATA { <http://ex/fresh5> <http://ex/freshp> <http://ex/fresh6> }`); err != nil {
		t.Fatal(err)
	}
	if got := db.Graph.Dict.Len(); got != before+3 {
		t.Errorf("dictionary = %d terms after a 3-new-term insert, want %d", got, before+3)
	}
}

// TestUpdateSequencedOps: ops in one request execute in order and commit
// as one epoch.
func TestUpdateSequencedOps(t *testing.T) {
	db := updateTestDB(t)
	e0 := db.Epoch()
	stats, err := db.Update(context.Background(), `
		PREFIX ex: <http://ex/>
		DELETE DATA { ex:alice ex:knows ex:bob } ;
		INSERT DATA { ex:alice ex:knows ex:dave . ex:dave ex:knows ex:bob }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 2 || stats.Deleted != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if db.Epoch() != e0+1 {
		t.Errorf("one request advanced the epoch %d times", db.Epoch()-e0)
	}
	checkDBInvariants(t, db)
	got := rowsOf(t, db, `SELECT ?y WHERE { <http://ex/alice> <http://ex/knows> ?y }`)
	if len(got) != 1 || got[0][0] != "<http://ex/dave>" {
		t.Errorf("alice now knows %v, want dave only", got)
	}
}

// TestUpdateNewVertexRouting: inserting triples over IRIs the graph has
// never seen must place them and keep Definition 1 intact.
func TestUpdateNewVertexRouting(t *testing.T) {
	db := updateTestDB(t)
	stats, err := db.Update(context.Background(), `
		INSERT DATA {
			<http://ex/n1> <http://ex/knows> <http://ex/n2> .
			<http://ex/n2> <http://ex/knows> <http://ex/alice> .
			<http://ex/n2> <http://ex/name> "Newcomer"@en
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 3 {
		t.Errorf("stats = %+v", stats)
	}
	checkDBInvariants(t, db)
	got := rowsOf(t, db, `SELECT ?n WHERE { ?x <http://ex/knows> <http://ex/alice> . ?x <http://ex/name> ?n }`)
	if len(got) != 1 || got[0][0] != `"Newcomer"@en` {
		t.Errorf("rows = %v", got)
	}
	// And the literal delete works through Lookup on the way back out.
	if _, err := db.Update(context.Background(),
		`DELETE DATA { <http://ex/n2> <http://ex/name> "Newcomer"@en }`); err != nil {
		t.Fatal(err)
	}
	checkDBInvariants(t, db)
	if got := rowsOf(t, db, `SELECT ?n WHERE { ?x <http://ex/name> ?n }`); len(got) != 0 {
		t.Errorf("deleted literal still answered: %v", got)
	}
}

// TestUpdatePlacesLikeTheHashStrategy: on a hash DB the write path's
// rule (the fragment whose V_i holds a vertex, else the Hash rule) keeps
// every vertex where the Hash strategy puts it, over a stream that adds
// vertices, takes their last edges away and adds them back, and an
// update rebuilds exactly the fragments its endpoints hash to.
func TestUpdatePlacesLikeTheHashStrategy(t *testing.T) {
	db := updateTestDB(t)
	dict, k := db.Graph.Dict, db.NumSites()
	for i, step := range []struct {
		op    string
		edges [][2]string
	}{
		{"INSERT", [][2]string{{"n1", "n2"}, {"n2", "alice"}, {"n3", "n1"}}},
		{"DELETE", [][2]string{{"n1", "n2"}, {"n3", "n1"}}},  // n1 and n3 lose their last edges
		{"INSERT", [][2]string{{"n1", "bob"}, {"n3", "n4"}}}, // and come back
		{"DELETE", [][2]string{{"alice", "bob"}, {"carol", "alice"}, {"n2", "alice"}}},
		{"INSERT", [][2]string{{"alice", "n4"}}},
	} {
		var body []string
		touched := make(map[int]bool)
		for _, e := range step.edges {
			body = append(body, fmt.Sprintf("<http://ex/%s> <http://ex/knows> <http://ex/%s>", e[0], e[1]))
			for _, v := range e {
				touched[partition.HashFragment(dict, dict.Encode(rdf.NewIRI("http://ex/"+v)), k)] = true
			}
		}
		stats, err := db.Update(context.Background(), step.op+" DATA { "+strings.Join(body, " . ")+" }")
		if err != nil {
			t.Fatal(err)
		}
		if stats.RebuiltFragments != len(touched) {
			t.Errorf("step %d: %d fragments rebuilt, want the %d its endpoints hash to", i, stats.RebuiltFragments, len(touched))
		}
		checkDBInvariants(t, db)
		for _, f := range db.Distributed().Fragments {
			for _, v := range f.InternalVertices() {
				if want := partition.HashFragment(dict, v, k); f.ID != want {
					t.Errorf("step %d: %v internal to fragment %d, hashes to %d", i, dict.MustDecode(v), f.ID, want)
				}
			}
		}
	}
}

// TestUpdateReturningVertexPlacedByHash: under a strategy that does not
// place by hash, a vertex that loses its last edge belongs to no
// fragment, so when it comes back it is placed like any new vertex, by
// the Hash rule, and Definition 1 holds throughout.
func TestUpdateReturningVertexPlacedByHash(t *testing.T) {
	g := NewGraph()
	member := func(d, i int) string { return fmt.Sprintf("http://dept%d.example/m%d", d, i) }
	for d := range 4 {
		for i := range 6 {
			g.AddIRIs(member(d, i), "http://ex/p", member(d, (i+1)%6))
			g.AddIRIs(member(d, i), "http://ex/p", member(d, (i+2)%6))
		}
		g.AddIRIs(member(d, 0), "http://ex/bridge", member((d+1)%4, 0))
	}
	for _, strategy := range []string{"semantic-hash", "metis"} {
		t.Run(strategy, func(t *testing.T) {
			db, err := Open(g, Config{Sites: 3, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			dist, dict := db.Distributed(), db.Graph.Dict
			// A vertex the strategy placed away from its hash fragment.
			v := rdf.NoTerm
			for _, cand := range dist.Global.Vertices() {
				if dist.Owner(cand) != partition.HashFragment(dict, cand, 3) {
					v = cand
					break
				}
			}
			if v == rdf.NoTerm {
				t.Fatal("the strategy placed every vertex by hash")
			}
			term := func(id rdf.TermID) string { return dict.MustDecode(id).String() }
			var edges []string
			for _, he := range dist.Global.Adjacency(v, true, rdf.NoTerm) {
				edges = append(edges, term(v)+" "+term(he.P)+" "+term(he.V))
			}
			for _, he := range dist.Global.Adjacency(v, false, rdf.NoTerm) {
				edges = append(edges, term(he.V)+" "+term(he.P)+" "+term(v))
			}
			if _, err := db.Update(context.Background(), "DELETE DATA { "+strings.Join(edges, " . ")+" }"); err != nil {
				t.Fatal(err)
			}
			checkDBInvariants(t, db)
			if db.Distributed().Global.HasVertex(v) {
				t.Fatalf("%s kept an edge", term(v))
			}
			if _, err := db.Update(context.Background(), "INSERT DATA { "+edges[0]+" }"); err != nil {
				t.Fatal(err)
			}
			checkDBInvariants(t, db)
			want := partition.HashFragment(dict, v, 3)
			if got := db.Distributed().Owner(v); got != want || !db.Distributed().Fragments[want].IsInternal(v) {
				t.Errorf("%s came back in fragment %d, want its hash fragment %d", term(v), got, want)
			}
			// edges[0] is v's first out-edge.
			back := dist.Global.Adjacency(v, true, rdf.NoTerm)[0]
			if got := rowsOf(t, db, "SELECT ?o WHERE { "+term(v)+" "+term(back.P)+" ?o }"); len(got) != 1 || got[0][0] != term(back.V) {
				t.Errorf("the returned edge answers %v, want %s", got, term(back.V))
			}
		})
	}
}

// TestUpdateDeleteRemovesAllInstances: the source graph is a multiset
// (generators emit duplicates); DELETE DATA takes the triple out of the
// graph entirely, instances and all.
func TestUpdateDeleteRemovesAllInstances(t *testing.T) {
	g := NewGraph()
	g.AddIRIs("http://ex/a", "http://ex/p", "http://ex/b")
	g.AddIRIs("http://ex/a", "http://ex/p", "http://ex/b") // duplicate instance
	g.AddIRIs("http://ex/b", "http://ex/p", "http://ex/c")
	db, err := Open(g, Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := db.Update(context.Background(), `DELETE DATA { <http://ex/a> <http://ex/p> <http://ex/b> }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 1 {
		t.Errorf("stats = %+v (set semantics: one triple deleted)", stats)
	}
	if db.NumTriples() != 1 {
		t.Errorf("NumTriples = %d, want 1 (both instances gone)", db.NumTriples())
	}
	if ts := db.Distributed().Global.Triples(); len(ts) != 1 {
		t.Errorf("stored triples = %v, want the b-p-c triple only", ts)
	}
	checkDBInvariants(t, db)
}

// TestUpdateLeavesCallerGraph: the graph passed to Open belongs to the
// caller; updates change the database, never that graph's triples.
func TestUpdateLeavesCallerGraph(t *testing.T) {
	g := NewGraph()
	g.AddIRIs("http://ex/a", "http://ex/p", "http://ex/b")
	g.AddIRIs("http://ex/b", "http://ex/p", "http://ex/c")
	before := slices.Clone(g.Triples)
	db, err := Open(g, Config{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{
		`INSERT DATA { <http://ex/c> <http://ex/p> <http://ex/d> }`,
		`DELETE DATA { <http://ex/a> <http://ex/p> <http://ex/b> }`,
	} {
		if _, err := db.Update(context.Background(), u); err != nil {
			t.Fatal(err)
		}
	}
	if db.NumTriples() != 2 {
		t.Errorf("NumTriples = %d, want 2", db.NumTriples())
	}
	if !slices.Equal(g.Triples, before) {
		t.Errorf("caller's graph = %v, want %v untouched", g.Triples, before)
	}
}

// TestUpdatePinsGeneration is the acceptance-criteria pin: an execution
// holding the pre-update generation keeps answering against it after
// the update commits, while new executions see the new data.
func TestUpdatePinsGeneration(t *testing.T) {
	db := updateTestDB(t)
	q, err := db.Parse(`SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	pre := db.load() // what an in-flight query pinned at its start

	if _, err := db.Update(context.Background(),
		`INSERT DATA { <http://ex/dave> <http://ex/knows> <http://ex/alice> }`); err != nil {
		t.Fatal(err)
	}

	// The pinned generation still answers exactly the pre-update graph.
	res, err := pre.eng.ExecuteContext(context.Background(), q, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("pinned generation sees %d rows, want the pre-update 3", res.Len())
	}
	// A fresh execution sees the write.
	if got := rowsOf(t, db, `SELECT ?x ?y WHERE { ?x <http://ex/knows> ?y }`); len(got) != 4 {
		t.Errorf("new generation sees %d rows, want 4", len(got))
	}
	// And the old generation's store was never mutated.
	if pre.dist.Global.Len() != 3 {
		t.Errorf("pre-update store grew to %d triples", pre.dist.Global.Len())
	}
}

// TestConcurrentQueriesDuringUpdates hammers queries from several
// goroutines while a writer inserts and deletes a marker triple in a
// loop: under -race every result must be one of the two consistent
// states, never an error, never a mix.
func TestConcurrentQueriesDuringUpdates(t *testing.T) {
	db := updateTestDB(t)
	const q = `SELECT ?x WHERE { ?x <http://ex/knows> <http://ex/alice> }`

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 16)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.Query(q)
				if err != nil {
					errs <- err
					return
				}
				if n := res.Len(); n != 1 && n != 2 {
					errs <- fmt.Errorf("saw %d rows, want 1 (pre) or 2 (post)", n)
					return
				}
			}
		}()
	}
	for i := 0; i < 25; i++ {
		if _, err := db.Update(context.Background(),
			`INSERT DATA { <http://ex/mallory> <http://ex/knows> <http://ex/alice> }`); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Update(context.Background(),
			`DELETE DATA { <http://ex/mallory> <http://ex/knows> <http://ex/alice> }`); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkDBInvariants(t, db)
}

// TestUpdateThenRepartition: after updates added vertices, planning and
// applying a fresh partitioning must cover them (PlanPartition works on
// the live store, not the Open-time one).
func TestUpdateThenRepartition(t *testing.T) {
	db := updateTestDB(t)
	if _, err := db.Update(context.Background(),
		`INSERT DATA { <http://ex/new1> <http://ex/knows> <http://ex/new2> }`); err != nil {
		t.Fatal(err)
	}
	a, err := db.PlanPartition("semantic-hash", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Repartition(a); err != nil {
		t.Fatalf("repartition after update: %v", err)
	}
	checkDBInvariants(t, db)
	if got := rowsOf(t, db, `SELECT ?y WHERE { <http://ex/new1> <http://ex/knows> ?y }`); len(got) != 1 {
		t.Errorf("rows = %v", got)
	}
	// And updating again after the repartition still works.
	if _, err := db.Update(context.Background(),
		`DELETE DATA { <http://ex/new1> <http://ex/knows> <http://ex/new2> }`); err != nil {
		t.Fatal(err)
	}
	checkDBInvariants(t, db)
}

// TestUpdateParseErrors: a malformed or unsupported update fails without
// touching the database.
func TestUpdateParseErrors(t *testing.T) {
	db := updateTestDB(t)
	e0 := db.Epoch()
	for _, u := range []string{
		`INSERT DATA { ?x <http://ex/p> <http://ex/b> }`,
		`DELETE WHERE { <http://ex/a> <http://ex/p> <http://ex/b> }`,
		`nonsense`,
	} {
		if _, err := db.Update(context.Background(), u); err == nil {
			t.Errorf("Update(%q) succeeded, want parse error", u)
		}
	}
	if db.Epoch() != e0 || db.NumTriples() != 3 {
		t.Error("failed updates mutated the database")
	}
}

// TestUpdateUnicodeEscapes: a literal written with a \u or \U escape is
// the literal its raw characters spell, in an update and in a query.
func TestUpdateUnicodeEscapes(t *testing.T) {
	db := updateTestDB(t)
	stats, err := db.Update(context.Background(), `INSERT DATA { <urn:s> <urn:p> "caf\u00e9" }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 1 {
		t.Errorf("insert stats = %+v, want 1 inserted", stats)
	}
	for _, q := range []string{
		`SELECT ?s WHERE { ?s <urn:p> "café" }`,
		`SELECT ?s WHERE { ?s <urn:p> "caf\u00e9" }`,
	} {
		if got := rowsOf(t, db, q); len(got) != 1 {
			t.Errorf("%s: rows = %v, want <urn:s>", q, got)
		}
	}
	stats, err = db.Update(context.Background(), `DELETE DATA { <urn:s> <urn:p> "caf\U000000e9" }`)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted != 1 {
		t.Errorf("delete stats = %+v, want 1 deleted", stats)
	}
}

// TestUpdateCanceledContext: a dead context aborts the update with its
// error and an unchanged database — no partial commit, no epoch bump.
func TestUpdateCanceledContext(t *testing.T) {
	db := updateTestDB(t)
	e0 := db.Epoch()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Update(ctx, `INSERT DATA { <http://ex/x> <http://ex/p> <http://ex/y> }`); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled update = %v, want context.Canceled", err)
	}
	if db.Epoch() != e0 || db.NumTriples() != 3 {
		t.Error("canceled update mutated the database")
	}
}

// TestUpdateOnLUBM exercises the incremental path at dataset scale:
// mutate a LUBM graph, check invariants and that only a strict subset of
// fragments was rebuilt.
func TestUpdateOnLUBM(t *testing.T) {
	ds := GenerateLUBM(1)
	db, err := Open(ds.Graph, Config{Sites: 12, Strategy: "semantic-hash"})
	if err != nil {
		t.Fatal(err)
	}
	before := db.NumTriples()
	var b strings.Builder
	b.WriteString("INSERT DATA {\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "<http://ex/updates/s%d> <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> <http://ex/updates/o%d> .\n", i, i%7)
	}
	b.WriteString("}")
	stats, err := db.Update(context.Background(), b.String())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inserted != 50 {
		t.Errorf("inserted %d, want 50", stats.Inserted)
	}
	if stats.RebuiltFragments >= 12 {
		t.Logf("note: delta touched all %d fragments", stats.RebuiltFragments)
	}
	if db.NumTriples() != before+50 {
		t.Errorf("NumTriples = %d, want %d", db.NumTriples(), before+50)
	}
	checkDBInvariants(t, db)
	got := rowsOf(t, db, `SELECT ?s WHERE { ?s <http://swat.cse.lehigh.edu/onto/univ-bench.owl#advisor> <http://ex/updates/o0> }`)
	if len(got) < 8 {
		t.Errorf("inserted advisor rows = %d, want >= 8", len(got))
	}
}

// benchDelta is an 8-triple update body shaped like the benchmark's
// update: a graduate student and a professor with four edges each into
// LUBM's data, their names suffixed by tag.
func benchDelta(tag string) string {
	ent := func(name string) string { return "<http://www.Department1.University5.edu/" + name + tag + ">" }
	ub := func(p string) string { return "<http://swat.cse.lehigh.edu/onto/univ-bench.owl#" + p + ">" }
	student, prof := ent("BenchStudent"), ent("BenchProfessor")
	var body strings.Builder
	for _, t := range [][3]string{
		{student, ub("memberOf"), "<http://www.Department1.University5.edu/Department1>"},
		{student, ub("name"), `"BenchStudent` + tag + `"`},
		{student, ub("advisor"), "<http://www.Department1.University5.edu/FullProfessor0>"},
		{student, ub("takesCourse"), "<http://www.Department1.University5.edu/Course0>"},
		{prof, ub("worksFor"), "<http://www.Department2.University9.edu/Department2>"},
		{prof, ub("name"), `"BenchProfessor` + tag + `"`},
		{prof, ub("emailAddress"), `"bench` + tag + `@dept2.univ9.edu"`},
		{prof, ub("researchInterest"), `"Research3"`},
	} {
		fmt.Fprintf(&body, "%s %s %s .\n", t[0], t[1], t[2])
	}
	return " DATA {\n" + body.String() + "}"
}

// TestUpdateCostFollowsTheDelta pins with a counter, not a clock, that
// a write costs what its delta touches, not what the data holds: the
// bytes DB.Update allocates for benchDelta's insert/delete pair, hashed
// over 12 sites and averaged over 40 updates, may grow by at most half
// from LUBM(32) to LUBM(128), a graph four times the size. An update
// that copies whole per-predicate triple lists, the vertex list or a
// fragment's crossing list allocates about 3.5 times as much there.
func TestUpdateCostFollowsTheDelta(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's shadow allocations void the byte counts")
	}
	perUpdate := func(scale int) float64 {
		db, err := Open(GenerateLUBM(scale).Graph, Config{Sites: 12})
		if err != nil {
			t.Fatal(err)
		}
		const updates = 40
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range updates {
			op := "INSERT"
			if i%2 == 1 {
				op = "DELETE"
			}
			if _, err := db.Update(context.Background(), op+benchDelta("")); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / updates
	}
	small, large := perUpdate(32), perUpdate(128)
	t.Logf("bytes allocated per update: LUBM(32) %.0f, LUBM(128) %.0f", small, large)
	if large > 1.5*small {
		t.Errorf("an update allocates %.0f bytes on LUBM(128), %.2f times the %.0f on LUBM(32): want at most 1.5 times", large, large/small, small)
	}
}

// BenchmarkUpdate times DB.Update, hashed over 12 sites, with the
// benchDelta update. In alternate the ops insert and delete the same
// delta in turn, on LUBM(32) and on LUBM(128): what one write costs
// should follow the delta, not the data. In fresh every op inserts new
// entities into LUBM(32), so each write also places vertices that no
// fragment holds.
func BenchmarkUpdate(b *testing.B) {
	for _, c := range []struct {
		name  string
		scale int
	}{{"alternate", 32}, {"fresh", 32}, {"alternate-lubm128", 128}} {
		fresh := c.name == "fresh"
		b.Run(c.name, func(b *testing.B) {
			db, err := Open(GenerateLUBM(c.scale).Graph, Config{Sites: 12})
			if err != nil {
				b.Fatal(err)
			}
			same := benchDelta("")
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				op := "INSERT" + same
				switch {
				case fresh:
					op = "INSERT" + benchDelta(fmt.Sprint(i))
				case i%2 == 1:
					op = "DELETE" + same
				}
				if _, err := db.Update(context.Background(), op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
