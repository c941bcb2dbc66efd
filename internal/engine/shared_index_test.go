package engine

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/paperexample"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// TestSharedIndexEquivalence: a fragment at the coordinator reads the
// global adjacency index through its V_i, and the same fragment rebuilt
// from its payload, as a worker holds it, owns its index. Over every
// query of paper_tables.golden, each dataset under hash, plus one whose
// constant end and label variable read an extended vertex's row, the
// two builds must agree in all four modes at widths 1 and 4 (Basic only
// without the race detector): rows, every counter and shipment of the
// table line, and each site's candidate vectors and partial-match set,
// column for column, with and without the candidate union.
func TestSharedIndexEquivalence(t *testing.T) {
	nonStar := func(bq workload.BenchQuery) bool { return bq.Shape != workload.ShapeStar }
	pinned := func(bq workload.BenchQuery) bool {
		return slices.Contains([]string{"LQ1", "LQ2", "LQ6", "LQ7"}, bq.Name)
	}
	ex := paperexample.New()
	paper, err := fragment.Build(ex.Store, ex.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	layouts := []struct {
		name string
		d    *fragment.Distributed
		qs   []tableQuery
	}{{"paper", paper, []tableQuery{{"Q", ex.Query}}}}
	for _, c := range []struct {
		name  string
		ds    *workload.Dataset
		sites int
		keep  func(workload.BenchQuery) bool
	}{
		{"LUBM(1)", workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7}), 4, pinned},
		{"LUBM(8)", workload.NewLUBM(workload.LUBMConfig{Universities: 8}), 12, nonStar},
		{"YAGO(1)", workload.NewYAGO(workload.YAGOConfig{Scale: 1}), 12, nonStar},
		{"BTC(1)", workload.NewBTC(workload.BTCConfig{Scale: 1}), 12, nonStar},
	} {
		d, err := buildWith(store.FromGraph(c.ds.Graph), partition.Hash{}, c.sites)
		if err != nil {
			t.Fatal(err)
		}
		layouts = append(layouts, struct {
			name string
			d    *fragment.Distributed
			qs   []tableQuery
		}{c.name + "/hash", d, compileQueries(t, c.ds, c.keep)})
	}
	// University0 is extended wherever a crossing edge reaches it; its row
	// in the global index also holds edges of no such fragment.
	lubm := layouts[1]
	extended := workload.BenchQuery{Name: "LQx", SPARQL: `PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?d ?p ?x WHERE { ?d ?p <` + workload.LubmUniversityURI(0) + `> . ?x ub:memberOf ?d }`}
	q, err := extended.Parse(lubm.d.Dict)
	if err != nil {
		t.Fatal(err)
	}
	u0 := q.Vertices[slices.IndexFunc(q.Vertices, func(v query.Vertex) bool { return !v.IsVar() })].Const
	if !slices.ContainsFunc(lubm.d.Fragments, func(f *fragment.Fragment) bool { return f.IsExtended(u0) }) {
		t.Fatal("University0 is extended at no LUBM(1) site: the query reads no extended row")
	}
	layouts[1].qs = append(layouts[1].qs, tableQuery{extended.Name, q})

	for _, l := range layouts {
		owned := &fragment.Distributed{Dict: l.d.Dict, Global: l.d.Global, Fragments: make([]*fragment.Fragment, len(l.d.Fragments))}
		for i, f := range l.d.Fragments {
			if owned.Fragments[i], err = fragment.FromPayload(f.Payload(), l.d.Dict); err != nil {
				t.Fatal(err)
			}
			if f.Store.OwnsIndex() || !owned.Fragments[i].Store.OwnsIndex() {
				t.Fatalf("%s fragment %d: the built store owns its index (%v), the rebuilt one (%v)", l.name, i, f.Store.OwnsIndex(), owned.Fragments[i].Store.OwnsIndex())
			}
		}
		shared, own := New(l.d), New(owned)
		for _, tq := range l.qs {
			for _, mode := range allModes {
				if mode == Basic && raceEnabled() {
					// Basic's all-pairs walk takes minutes on YAGO(1) under
					// the detector, and it reads only the site replies that
					// sameSiteSets compares below.
					continue
				}
				for _, width := range []int{1, 4} {
					key := fmt.Sprintf("%s/%s/%v/%d", l.name, tq.name, mode, width)
					cfg := Config{Mode: mode, EvalWorkers: width}
					a, err := shared.ExecuteContext(context.Background(), tq.q, cfg)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					b, err := own.ExecuteContext(context.Background(), tq.q, cfg)
					if err != nil {
						t.Fatalf("%s over owned indexes: %v", key, err)
					}
					la, _ := tableLine(key, a)
					if lb, _ := tableLine(key, b); la != lb || !slices.EqualFunc(a.Rows, b.Rows, slices.Equal) {
						t.Errorf("shared and owned indexes disagree:\nshared %s\n owned %s", la, lb)
					}
				}
			}
			sameSiteSets(t, l.name+"/"+tq.name, l.d.Global, tq.q, shared, own)
		}
	}
}

// sameSiteSets holds the two engines' sites to the same stage-0 vectors
// and the same partial-match sets, without the candidate union and with
// the one the shared engine's sites report.
func sameSiteSets(t *testing.T, key string, global *store.Store, q *query.Graph, shared, own *Engine) {
	t.Helper()
	ctx := context.Background()
	creq := cluster.CandidatesRequest{Query: q}
	vecs := make([]*candidates.SiteVectors, len(shared.sites))
	for i := range shared.sites {
		a, err := shared.sites[i].Candidates(ctx, creq)
		if err != nil {
			t.Fatal(err)
		}
		b, err := own.sites[i].Candidates(ctx, creq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Vectors, b.Vectors) {
			t.Errorf("%s: site %d's candidate vectors differ between shared and owned indexes", key, i)
		}
		vecs[i] = a.Vectors
	}
	union, err := candidates.Union(vecs, q, candidates.DefaultBits)
	if err != nil {
		t.Fatal(err)
	}
	plan := global.Plan(q)
	for _, u := range []*candidates.SiteVectors{nil, union} {
		req := cluster.PartialRequest{Query: q, Order: store.EdgeOrder(plan), Union: u}
		for i := range shared.sites {
			var rows [2]int
			var sets [2]any
			for j, e := range []*Engine{shared, own} {
				rep, err := e.sites[i].PartialEvalBatches(ctx, req, func(b [][]rdf.TermID) bool { rows[j] += len(b); return true })
				if err != nil {
					t.Fatal(err)
				}
				sets[j] = rep.Set
			}
			if rows[0] != rows[1] || !reflect.DeepEqual(sets[0], sets[1]) {
				t.Errorf("%s (union %v): site %d's partial evaluation differs between shared and owned indexes: %d and %d local rows", key, u != nil, i, rows[0], rows[1])
			}
		}
	}
}
