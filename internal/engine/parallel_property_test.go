package engine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// TestParallelEquivalenceLUBMProperty is the randomized property test:
// random BGPs traced along actual edges of a seeded LUBM(1) slice —
// constant subjects and objects and variable-label edges to a constant
// among them, the patterns stage 0's constant-aware candidate sets read —
// evaluated under a hash and a min-cut layout against the sequential
// in-process Full run (EvalWorkers=1). Ordered results of the parallel
// pipeline, of Basic (which runs no stage 0 and no LEC pruning) and of
// both modes through two RPC workers must be byte-identical to it;
// unordered streaming must emit the same row multiset.
func TestParallelEquivalenceLUBMProperty(t *testing.T) {
	g := workload.LUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	st := store.FromGraph(g)
	for _, layout := range []partition.Strategy{partition.Hash{}, partition.Metis{}} {
		t.Run(layout.Name(), func(t *testing.T) {
			d, err := buildWith(st, layout, 4)
			if err != nil {
				t.Fatal(err)
			}
			env := &equivEnv{dict: g.Dict, dist: d, eng: New(d)}
			remoteEng := newRemoteEngine(t, env)
			rng := rand.New(rand.NewSource(11))

			trials := 30
			if testing.Short() {
				trials = 8
			}
			nonEmpty, filtered := 0, 0
			for trial := 0; trial < trials; trial++ {
				q := randomBGP(st, rng)
				oracle, err := env.eng.ExecuteContext(context.Background(), q, Config{Mode: Full, EvalWorkers: 1})
				if err != nil {
					t.Fatalf("trial %d (%s): oracle: %v", trial, q, err)
				}
				want := projectedRows(oracle)
				if len(want) > 0 {
					nonEmpty++
				}
				if len(oracle.Stats.CandidateVars) > 0 {
					filtered++
				}

				runs := []struct {
					name string
					e    *Engine
					cfg  Config
				}{
					{"workers=0", env.eng, Config{Mode: Full}},
					{"workers=2", env.eng, Config{Mode: Full, EvalWorkers: 2}},
					{"workers=4", env.eng, Config{Mode: Full, EvalWorkers: 4}},
					{"basic", env.eng, Config{Mode: Basic, EvalWorkers: 1}},
					{"remote", remoteEng, Config{Mode: Full, EvalWorkers: 4}},
					{"remote basic", remoteEng, Config{Mode: Basic, EvalWorkers: 4}},
				}
				for _, r := range runs {
					res, err := r.e.ExecuteContext(context.Background(), q, r.cfg)
					if err != nil {
						t.Fatalf("trial %d (%s) %s: %v", trial, q, r.name, err)
					}
					if got := projectedRows(res); !sameRows(got, want) {
						t.Fatalf("trial %d (%s) %s: ordered rows diverged (%d vs %d rows)",
							trial, q, r.name, len(got), len(want))
					}
				}

				var streamed []Row
				if _, err := env.eng.ExecuteStream(context.Background(), q, Config{Mode: Full, EvalWorkers: 4}, func(r Row) bool {
					streamed = append(streamed, slices.Clone(r))
					return true
				}); err != nil {
					t.Fatalf("trial %d (%s): stream: %v", trial, q, err)
				}
				if !sameMultiset(streamed, want) {
					t.Fatalf("trial %d (%s): unordered multiset diverged (%d vs %d rows)",
						trial, q, len(streamed), len(want))
				}
			}
			// A generator drifting into all-empty or all-star queries would
			// vacuously pass.
			if nonEmpty < trials/3 || filtered < trials/4 {
				t.Fatalf("of %d random queries %d had results and %d ran stage 0; generator degenerated", trials, nonEmpty, filtered)
			}
		})
	}
}

// randomBGP traces a 2-5 edge BGP along real edges of st, so the pattern
// has the match it was traced from (short of a repeated pattern wanting a
// second edge instance). The first edge is a sampled triple, subject ?s0
// and object ?o0; each further one is an edge out of or into the vertex
// one of those two stands for. An edge's far end freezes to its constant
// one time in three — a constant object or a constant subject — and such
// an edge's label is a variable one time in three; some queries gain a
// disconnected extra component.
func randomBGP(st *store.Store, rng *rand.Rand) *query.Graph {
	b := query.NewBuilder(st.Dict)
	triples := st.Triples()
	sample := func() rdf.Triple { return triples[rng.Intn(len(triples))] }
	constant := func(id rdf.TermID) query.Node { return query.Term(st.Dict.MustDecode(id)) }
	// far is the pattern's other end and label for a traced edge whose far
	// end is id under predicate p.
	far := func(id, p rdf.TermID, varName string) (query.Node, query.Node) {
		if rng.Intn(3) != 0 {
			return query.Var(varName), constant(p)
		}
		if rng.Intn(3) == 0 {
			return constant(id), query.Var("l" + varName)
		}
		return constant(id), constant(p)
	}

	t0 := sample()
	o0, p0 := far(t0.O, t0.P, "o0")
	b.Triple(query.Var("s0"), p0, o0)
	hubs := []struct {
		name string
		id   rdf.TermID
	}{{"s0", t0.S}, {"o0", t0.O}}
	// 1-3 extension edges, alternating between the two hubs: from the
	// second on the pattern is no star, so it runs the distributed path.
	extra, first := 1+rng.Intn(3), rng.Intn(2)
	for i := 0; i < extra; i++ {
		hub := hubs[(first+i)%2]
		out, in := st.Out(hub.id), st.In(hub.id)
		if len(in) > 0 && (len(out) == 0 || rng.Intn(2) == 0) {
			he := in[rng.Intn(len(in))]
			s, p := far(he.V, he.P, fmt.Sprintf("i%d", i+1))
			b.Triple(s, p, query.Var(hub.name))
		} else if len(out) > 0 {
			he := out[rng.Intn(len(out))]
			o, p := far(he.V, he.P, fmt.Sprintf("x%d", i+1))
			b.Triple(query.Var(hub.name), p, o)
		}
	}
	if rng.Intn(3) == 0 {
		tn := sample()
		d1, p := far(tn.O, tn.P, "d1")
		b.Triple(query.Var("d0"), p, d1)
	}
	return b.MustBuild()
}
