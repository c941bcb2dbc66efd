package engine

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/store"
	"gstored/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/paper_tables.golden from this run's counters")

// tableQuery is one benchmark query compiled against its dataset's
// dictionary.
type tableQuery struct {
	name string
	q    *query.Graph
}

func compileQueries(t *testing.T, ds *workload.Dataset, keep func(workload.BenchQuery) bool) []tableQuery {
	t.Helper()
	var out []tableQuery
	for _, bq := range ds.Queries {
		if !keep(bq) {
			continue
		}
		q, err := bq.Parse(ds.Graph.Dict)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tableQuery{bq.Name, q})
	}
	return out
}

// tableLine renders one execution as the table prints it: counters only,
// nothing a clock or a socket produced. digest folds the canonically
// sorted result rows, each as its length and its TermIDs, 4 bytes
// big-endian apiece.
func tableLine(key string, res *Result) (line string, digest uint64) {
	h := fnv.New64a()
	var buf []byte
	for _, r := range res.Rows {
		buf = binary.BigEndian.AppendUint32(buf[:0], uint32(len(r)))
		for _, id := range r {
			buf = binary.BigEndian.AppendUint32(buf, uint32(id))
		}
		h.Write(buf)
	}
	digest = h.Sum64()
	s := &res.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "%s pms=%d features=%d retained=%d crossing=%d local=%d joins=%d",
		key, s.NumPartialMatches, s.NumLECFeatures, s.NumRetainedPartialMatches,
		s.NumCrossingMatches, s.NumLocalMatches, s.JoinAttempts)
	fmt.Fprintf(&b, " init=%d cand=%d partial=%d lec=%d asm=%d total=%d msgs=%d rows=%d digest=%016x",
		s.InitShipment, s.Stages[StageCandidates].Shipment, s.Stages[StagePartial].Shipment, s.Stages[StageLEC].Shipment, s.Stages[StageAssembly].Shipment,
		s.TotalShipment, s.Messages, s.NumMatches, digest)
	sep := " frags="
	for _, f := range s.Fragments {
		fmt.Fprintf(&b, "%s%d", sep, f.ShipmentBytes)
		sep = ","
	}
	sep = " vars="
	for _, v := range s.CandidateVars {
		fmt.Fprintf(&b, "%s%s:%v:%d:%d:%d:%d", sep, v.Var, v.Form, v.Count, v.Rejects, v.BytesUp, v.BytesDown)
		sep = ","
	}
	return b.String(), digest
}

// shipmentSum is the query broadcast plus every stage's shipment: the
// execution's TotalShipment, by the §IX model's construction.
func shipmentSum(s *Stats) int64 {
	sum := s.InitShipment
	for _, st := range s.Stages {
		sum += st.Shipment
	}
	return sum
}

// semijoinRelations asserts what the §IX model promises of an LO or Full
// line off the star path: stage 3 ships at least the matches the walk
// retains and at most all of them, and the LEC stage sends at most four
// messages per site (two rounds of a mapping report up and a bitmap down:
// the sample's, then the rest's). Every match of
// a query prices alike — 8 bytes plus 4 per vertex and, when an edge label
// is a variable, 4 per query variable — and is one message, so the LEC
// stage's messages are what the query broadcast (one per site), stage 0
// (two per site, Full), the gathered local rows (one) and stage 3 leave.
func semijoinRelations(t *testing.T, key string, q *query.Graph, s *Stats) {
	t.Helper()
	price := int64(partial.MatchBytes(q))
	asm := s.Stages[StageAssembly].Shipment
	if asm < int64(s.NumRetainedPartialMatches)*price || asm > int64(s.NumPartialMatches)*price {
		t.Errorf("%s: asm %d outside [%d retained, %d pms] × %d bytes", key, asm, s.NumRetainedPartialMatches, s.NumPartialMatches, price)
	}
	k := int64(len(s.Fragments))
	lecMsgs := s.Messages - k - 1 - asm/price
	if s.Mode == Full {
		lecMsgs -= 2 * k
	}
	if lecMsgs < 0 || lecMsgs > 4*k {
		t.Errorf("%s: the LEC stage sent %d messages, want at most 4 per site (%d sites)", key, lecMsgs, k)
	}
}

// tableLines executes every query of qs on e in the four modes at width
// 1 and returns one line per execution plus each query's row digest. It
// asserts, on the computed counters and not on the file, what the paper
// and the §IX model promise of every line and of the modes of one query;
// then a pass at width 8 must reproduce the width-1 lines. That pass skips
// Basic for time only — its AllPairs walk would about double the test —
// and TestWalkWidthEquivalence, which runs every mode at widths 1, 2 and
// 8, holds Basic to width invariance.
func tableLines(t *testing.T, e *Engine, prefix string, qs []tableQuery) (lines []string, digests map[string]uint64) {
	digests = make(map[string]uint64)
	for _, tq := range qs {
		stats := make(map[Mode]*Stats)
		for _, mode := range allModes {
			key := fmt.Sprintf("%s/%s/%v", prefix, tq.name, mode)
			res, err := e.ExecuteContext(context.Background(), tq.q, Config{Mode: mode, EvalWorkers: 1})
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			line, digest := tableLine(key, res)
			lines = append(lines, line)
			s := &res.Stats
			stats[mode] = s

			if mode == Basic {
				digests[tq.name] = digest
			} else if digest != digests[tq.name] {
				t.Errorf("%s: row digest %016x, Basic's is %016x", key, digest, digests[tq.name])
			}
			if sum := shipmentSum(s); sum != s.TotalShipment {
				t.Errorf("%s: init+cand+partial+lec+asm = %d, total = %d", key, sum, s.TotalShipment)
			}
			if s.NumCrossingMatches+s.NumLocalMatches < s.NumMatches {
				t.Errorf("%s: %d crossing + %d local matches < %d rows", key, s.NumCrossingMatches, s.NumLocalMatches, s.NumMatches)
			}
			if mode >= LO && !s.StarFastPath {
				semijoinRelations(t, key, tq.q, s)
			}
			if mode == Basic {
				continue
			}
			wide, err := e.ExecuteContext(context.Background(), tq.q, Config{Mode: mode, EvalWorkers: 8})
			if err != nil {
				t.Fatalf("%s at width 8: %v", key, err)
			}
			if got, _ := tableLine(key, wide); got != line {
				t.Errorf("width 8 does not reproduce width 1:\n got %s\nwant %s", got, line)
			}
		}
		key := prefix + "/" + tq.name
		basic, la, lo, full := stats[Basic], stats[LA], stats[LO], stats[Full]
		if full.NumPartialMatches > lo.NumPartialMatches {
			t.Errorf("%s: candidate sets grew the partial matches, %d → %d", key, lo.NumPartialMatches, full.NumPartialMatches)
		}
		if lo.NumRetainedPartialMatches > basic.NumRetainedPartialMatches || full.NumRetainedPartialMatches > basic.NumRetainedPartialMatches {
			t.Errorf("%s: retained %d (LO) / %d (Full) > Basic's %d", key,
				lo.NumRetainedPartialMatches, full.NumRetainedPartialMatches, basic.NumRetainedPartialMatches)
		}
		if lo.Stages[StageAssembly].Shipment > basic.Stages[StageAssembly].Shipment {
			t.Errorf("%s: LO assembly shipment %d > Basic's %d", key, lo.Stages[StageAssembly].Shipment, basic.Stages[StageAssembly].Shipment)
		}
		if la.JoinAttempts > basic.JoinAttempts {
			t.Errorf("%s: LA join attempts %d > Basic's %d", key, la.JoinAttempts, basic.JoinAttempts)
		}
	}
	return lines, digests
}

// TestPaperTables is the reproduction table: Tables I–III and Fig. 9
// (per query and mode: partial matches, LEC features, retained matches,
// join attempts, §IX bytes per stage), Table IV (the Section VII cost of
// each layout) and Fig. 10 (the same queries under the three layouts) as
// exact counters in testdata/paper_tables.golden. Section one is the
// paper's running example and LUBM(1) under hash on 4 sites, star LQ2
// included; section two is LUBM(8), YAGO(1) and BTC(1) on 12 sites under
// hash, semantic-hash and metis, every non-star benchmark query. A
// deliberate change to a counter regenerates the file with -update; the
// relations tableLines and this test assert hold either way.
func TestPaperTables(t *testing.T) {
	const path = "testdata/paper_tables.golden"
	nonStar := func(bq workload.BenchQuery) bool { return bq.Shape != workload.ShapeStar }

	ex, pe := paperEngine(t)
	out, _ := tableLines(t, pe, "paper", []tableQuery{{"Q", ex.Query}})
	lubm1 := workload.NewLUBM(workload.LUBMConfig{Universities: 1, Seed: 7})
	d, err := buildWith(store.FromGraph(lubm1.Graph), partition.Hash{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{"LQ1": true, "LQ2": true, "LQ6": true, "LQ7": true}
	lines, _ := tableLines(t, New(d), "LUBM(1)/hash", compileQueries(t, lubm1, func(bq workload.BenchQuery) bool { return pinned[bq.Name] }))
	out = append(out, lines...)

	// One group per (dataset, layout). The groups run as parallel subtests
	// that fill their own slot; the file lists them in declaration order.
	type group struct {
		name    string
		cost    partition.CostBreakdown
		lines   []string
		digests map[string]uint64
	}
	datasets := []struct {
		name string
		ds   *workload.Dataset
	}{
		{"LUBM(8)", workload.NewLUBM(workload.LUBMConfig{Universities: 8})},
		{"YAGO(1)", workload.NewYAGO(workload.YAGOConfig{Scale: 1})},
		{"BTC(1)", workload.NewBTC(workload.BTCConfig{Scale: 1})},
	}
	layouts := []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}}
	groups := make([]group, len(datasets)*len(layouts))
	t.Run("groups", func(t *testing.T) {
		for di, ds := range datasets {
			st := store.FromGraph(ds.ds.Graph)
			qs := compileQueries(t, ds.ds, nonStar)
			for li, strat := range layouts {
				g := &groups[di*len(layouts)+li]
				g.name = ds.name + "/" + strat.Name()
				t.Run(g.name, func(t *testing.T) {
					t.Parallel()
					a, err := strat.Partition(st, 12)
					if err != nil {
						t.Fatal(err)
					}
					g.cost = partition.Cost(st, a)
					d, err := fragment.Build(st, a)
					if err != nil {
						t.Fatal(err)
					}
					g.lines, g.digests = tableLines(t, New(d), g.name, qs)
				})
			}
		}
	})
	if t.Failed() {
		return // a group that stopped early left its slot empty
	}
	for i, g := range groups {
		out = append(out, fmt.Sprintf("%s crossing_edges=%d max_fragment_edges=%d cost=%.6g",
			g.name, g.cost.NumCrossing, g.cost.MaxFragmentEdges, g.cost.Cost))
		out = append(out, g.lines...)
		// Layouts move work between sites, never rows: groups[first] is the
		// dataset's hash layout.
		first := i - i%len(layouts)
		for name, digest := range g.digests {
			if want := groups[first].digests[name]; digest != want {
				t.Errorf("%s/%s: row digest %016x, under %s %016x", g.name, name, digest, groups[first].name, want)
			}
		}
	}
	// Table IV's shape: on LUBM, hashing on the university beats hashing
	// on the whole IRI.
	if hash, semantic := groups[0].cost.Cost, groups[1].cost.Cost; semantic >= hash {
		t.Errorf("LUBM(8): semantic-hash cost %.6g is not below hash cost %.6g", semantic, hash)
	}

	if *update && !t.Failed() {
		if err := os.WriteFile(path, []byte(strings.Join(out, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(want) != len(out) {
		t.Errorf("%s holds %d lines, this run produced %d", path, len(want), len(out))
	}
	for i := 0; i < min(len(want), len(out)); i++ {
		if out[i] != want[i] {
			t.Fatalf("%s line %d (rerun with -update if the change is meant):\n got %s\nwant %s", path, i+1, out[i], want[i])
		}
	}
}
