package engine

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// A FuzzExecute input is, byte by byte:
//
//	[0]      k = 2 + b%3 fragments
//	[1]      modifiers: bit 0 DISTINCT, bit 1 LIMIT (bits 2–4), OFFSET bits 5–7
//	[2]      1 + b%4 triple patterns, read from the bytes below; bit 2
//	         lowers the engine's held-data budget to 64·(b>>3) bytes
//	[3:15]   four (subject, label, object) byte triples: a node byte names
//	         ?x0–?x3 when even and the constant v0–v11 when odd, a label byte
//	         p0–p2, or ?l0 / ?l1 when it is 3 mod 4
//	[15:27]  the fragment (mod k) of vertices v0–v11
//	[27:]    up to 40 edges (v%12, p%3, v%12), self-loops and parallel edges
//	         included
const (
	fuzzPatterns = 3
	fuzzFrags    = fuzzPatterns + 12
	fuzzEdges    = fuzzFrags + 12
	fuzzMaxRows  = 2000
)

// fuzzQuery decodes an input's BGP and modifiers.
func fuzzQuery(dict *rdf.Dictionary, data []byte) (*query.Graph, error) {
	node := func(b byte) query.Node {
		if b%2 == 0 {
			return query.Var(fmt.Sprintf("x%d", b/2%4))
		}
		return query.IRI(fmt.Sprintf("v%d", b/2%12))
	}
	label := func(b byte) query.Node {
		if b%4 == 3 {
			return query.Var(fmt.Sprintf("l%d", b/4%2))
		}
		return query.IRI(fmt.Sprintf("p%d", b%4))
	}
	b := query.NewBuilder(dict)
	for i := 0; i <= int(data[2])%4; i++ {
		tp := data[fuzzPatterns+3*i:]
		b.Triple(node(tp[0]), label(tp[1]), node(tp[2]))
	}
	mods := data[1]
	if mods&1 != 0 {
		b.Distinct()
	}
	if mods&2 != 0 {
		b.Limit(int(mods>>2) & 7)
	}
	return b.Offset(int(mods >> 5)).Build()
}

// fuzzInput encodes one FuzzExecute input from its parts (the seeds below
// are written this way).
func fuzzInput(k int, mods byte, patterns [][3]byte, frag [12]byte, edges ...[3]byte) []byte {
	data := make([]byte, fuzzEdges, fuzzEdges+3*len(edges))
	data[0], data[1], data[2] = byte(k-2), mods, byte(len(patterns)-1)
	for i, p := range patterns {
		copy(data[fuzzPatterns+3*i:], p[:])
	}
	copy(data[fuzzFrags:], frag[:])
	for _, e := range edges {
		data = append(data, e[:]...)
	}
	return data
}

// Node and label bytes for the seeds.
const (
	x0, x1, x2, x3 = 0, 2, 4, 6
	c0, c1, c2, c3 = 1, 3, 5, 7 // v0–v3
	p0, p1, p2     = 0, 1, 2
	l0             = 3
)

// oracleRows is the centralized answer to q: the global store's matches
// in canonical order (numeric TermID order, slot by slot), projected, then
// through a naive DISTINCT, OFFSET and LIMIT of its own. It shares no code
// with candidates, partial, lec, assembly or the engine's sinks. It does
// share store.MatchFunc with the engine's local search, the star path's
// and each site's: TestMatchAgainstBruteForce is what checks that search.
func oracleRows(st *store.Store, q *query.Graph) []Row {
	var rows []Row
	for _, b := range st.Match(q) {
		rows = append(rows, Row(b.Vars))
	}
	slices.SortFunc(rows, func(a, b Row) int { return slices.Compare(a, b) })
	var kept []Row
	for _, r := range rows {
		p := r
		if len(q.Projection) > 0 {
			p = nil
			for _, v := range q.Projection {
				p = append(p, r[v])
			}
		}
		if q.Distinct && slices.ContainsFunc(kept, func(k Row) bool { return slices.Equal(k, p) }) {
			continue
		}
		kept = append(kept, p)
	}
	kept = kept[min(q.Offset, len(kept)):]
	if q.HasLimit {
		kept = kept[:min(q.Limit, len(kept))]
	}
	return kept
}

// FuzzExecute holds the whole pipeline — candidate sets, partial
// evaluation, LEC pruning and assembly, the star path and the component
// split — to a centralized oracle on layouts no partitioner produces:
// empty, one-vertex and all-crossing fragments. Every mode at widths 1
// and 4 must serve the oracle's rows in its order, and stream the same
// multiset (under LIMIT/OFFSET: as many rows, each from the answer). An
// input with the budget bit may instead fail a run with ErrBudget: an
// ordered run at both widths or at neither, since what it holds does not
// depend on the width. The golden's relations hold on every input that
// runs within its budget: Full's partial matches are at most LO's, LO's
// and Full's retained matches at most Basic's, and the stage shipments
// sum to the total.
func FuzzExecute(f *testing.F) {
	// The paper's running example in twelve vertices: Fig. 1's three
	// fragments without s2:Phi4 and the literals nothing reaches, name and
	// label sharing p2. Four crossing matches, as in the paper.
	paper := fuzzInput(3, 0,
		[][3]byte{{x0, p1, x1}, {x2, p0, x0}, {x1, p2, x3}, {x2, p2, c1}},
		[12]byte{0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2},
		[3]byte{0, p2, 1}, [3]byte{3, p2, 2}, [3]byte{4, p1, 5}, [3]byte{5, p2, 6},
		[3]byte{4, p1, 7}, [3]byte{7, p2, 8}, [3]byte{9, p1, 10}, [3]byte{10, p2, 11},
		[3]byte{0, p0, 4}, [3]byte{4, p1, 3}, [3]byte{0, p0, 9})
	f.Add(paper)
	// The same under a budget of 64·7 bytes: its partial matches fit and
	// its rows do not, so every ordered run fails and every streamed one
	// answers.
	budgeted := slices.Clone(paper)
	budgeted[2] |= 4 | 7<<3
	f.Add(budgeted)
	// The golden's section-one shapes without constants: LQ1's triangle
	// (advisor, takesCourse, teacherOf) and LQ7's co-enrollment path.
	f.Add(fuzzInput(3, 0,
		[][3]byte{{x1, p0, x0}, {x1, p1, x2}, {x0, p2, x2}},
		[12]byte{0, 1, 2, 0, 1, 2},
		[3]byte{0, p0, 2}, [3]byte{1, p0, 3}, [3]byte{0, p1, 4}, [3]byte{1, p1, 5},
		[3]byte{1, p1, 4}, [3]byte{2, p2, 4}, [3]byte{3, p2, 5}, [3]byte{3, p2, 4}))
	f.Add(fuzzInput(2, 0,
		[][3]byte{{x0, p2, x2}, {x1, p1, x2}, {x1, p0, x3}},
		[12]byte{0, 1, 1, 0, 1, 0, 0, 1},
		[3]byte{0, p2, 4}, [3]byte{1, p2, 5}, [3]byte{2, p1, 4}, [3]byte{3, p1, 4},
		[3]byte{3, p1, 5}, [3]byte{2, p0, 6}, [3]byte{3, p0, 6}, [3]byte{3, p0, 7}))
	// Every variable joins a constant, so partial evaluation seeds from
	// its candidate domain and local matching from a constant's anchor;
	// each shape has a crossing edge in two instances.
	f.Add(fuzzInput(2, 0, // LQ6's path
		[][3]byte{{x0, p0, c1}, {x0, p1, x1}, {x1, p2, c2}},
		[12]byte{0, 0, 1, 0, 1, 1},
		[3]byte{3, p0, 1}, [3]byte{5, p0, 1}, [3]byte{5, p0, 1}, [3]byte{3, p1, 4},
		[3]byte{3, p1, 4}, [3]byte{5, p1, 4}, [3]byte{4, p2, 2}))
	f.Add(fuzzInput(2, 0, // a triangle through a constant
		[][3]byte{{c0, p0, x1}, {x1, p1, x2}, {x2, p2, c0}},
		[12]byte{0, 0, 1},
		[3]byte{0, p0, 1}, [3]byte{1, p1, 2}, [3]byte{1, p1, 2}, [3]byte{2, p2, 0}))
	f.Add(fuzzInput(2, 0, // a label variable at a constant
		[][3]byte{{c0, l0, x1}, {x1, p1, x2}, {x2, p2, c3}},
		[12]byte{0, 1, 0, 1},
		[3]byte{0, p0, 1}, [3]byte{0, p2, 1}, [3]byte{0, p0, 1}, [3]byte{1, p1, 2},
		[3]byte{2, p2, 3}))
	f.Add(fuzzInput(3, 0, // an edge with two constant ends, first in the plan
		[][3]byte{{c0, p0, c1}, {c1, p1, x1}, {x1, p2, c0}},
		[12]byte{0, 1, 2},
		[3]byte{0, p0, 1}, [3]byte{0, p0, 1}, [3]byte{1, p1, 2}, [3]byte{1, p1, 2},
		[3]byte{2, p2, 0}, [3]byte{2, p2, 0}))
	// Disconnected, the second component anchored, under DISTINCT LIMIT 3
	// OFFSET 1.
	f.Add(fuzzInput(4, 1|2|3<<2|1<<5,
		[][3]byte{{x0, p0, x1}, {x2, p1, c1}},
		[12]byte{0, 1, 2, 3, 0, 1},
		[3]byte{0, p0, 2}, [3]byte{2, p0, 4}, [3]byte{4, p1, 1}, [3]byte{5, p1, 1},
		[3]byte{5, p1, 1}, [3]byte{3, p0, 3}))
	// No assembled row is deduplicated, so these two edges of the
	// decomposition argument must still yield each row once. A path whose
	// crossing matches take two disjoint partial matches of fragment 0,
	// one internal component on each side of v1's fragment:
	f.Add(fuzzInput(2, 0,
		[][3]byte{{x0, p0, x1}, {x1, p1, x2}, {x2, p2, x3}},
		[12]byte{0, 1, 0, 0, 1, 0},
		[3]byte{0, p0, 1}, [3]byte{5, p0, 1}, [3]byte{1, p1, 2}, [3]byte{2, p2, 3},
		[3]byte{2, p2, 4}))
	// and a path that opens with a label variable over a crossing edge
	// with two instances beside a parallel edge of another label, then an
	// internal edge with two instances and a second crossing edge: two
	// crossing matches, one per label.
	f.Add(fuzzInput(2, 0,
		[][3]byte{{x0, l0, x1}, {x1, p1, x2}, {x2, p0, x3}},
		[12]byte{0, 1, 1, 0},
		[3]byte{0, p0, 1}, [3]byte{0, p0, 1}, [3]byte{0, p2, 1}, [3]byte{1, p1, 2},
		[3]byte{1, p1, 2}, [3]byte{2, p0, 3}))
	// DISTINCT OFFSET 2 over a two-edge path of five rows, and LIMIT 0,
	// which both sinks satisfy before the first row.
	for _, mods := range []byte{1 | 2<<5, 2} {
		f.Add(fuzzInput(3, mods,
			[][3]byte{{x0, p0, x1}, {x1, p1, x2}},
			[12]byte{0, 1, 2, 0, 1, 2},
			[3]byte{0, p0, 2}, [3]byte{0, p0, 2}, [3]byte{1, p0, 2}, [3]byte{2, p1, 4},
			[3]byte{2, p1, 5}, [3]byte{3, p0, 4}, [3]byte{4, p1, 5}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < fuzzEdges+3 {
			return
		}
		k := 2 + int(data[0])%3
		g := rdf.NewGraph()
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for edges := data[fuzzEdges:]; len(edges) >= 3 && len(g.Triples) < 40; edges = edges[3:] {
			s, o := int(edges[0])%12, int(edges[2])%12
			g.AddIRIs(fmt.Sprintf("v%d", s), fmt.Sprintf("p%d", edges[1]%3), fmt.Sprintf("v%d", o))
			tr := g.Triples[len(g.Triples)-1]
			a.Frag[tr.S], a.Frag[tr.O] = int(data[fuzzFrags+s])%k, int(data[fuzzFrags+o])%k
		}
		global := store.FromGraph(g)
		d, err := fragment.Build(global, a)
		if err != nil {
			t.Fatal(err)
		}
		q, err := fuzzQuery(g.Dict, data)
		if err != nil {
			t.Skip(err)
		}
		// Four single-edge components over 40 edges make millions of rows:
		// an input asks for at most fuzzMaxRows.
		n := 0
		global.MatchFunc(q, store.MatchOptions{}, func(store.Binding) bool { n++; return n <= fuzzMaxRows })
		if n > fuzzMaxRows {
			return
		}
		want := oracleRows(global, q)
		// What LIMIT and OFFSET may pick from.
		whole := *q
		whole.HasLimit, whole.Offset = false, 0
		answer := oracleRows(global, &whole)
		subsetting := q.HasLimit || q.Offset > 0

		e := New(d)
		if data[2]&4 != 0 {
			e.budget = 64 * int64(data[2]>>3)
		}
		stats := make(map[Mode]Stats)
		for _, mode := range allModes {
			over := map[int]bool{}
			for _, width := range []int{1, 4} {
				at := fmt.Sprintf("%v width %d on %v, edges %v, layout %v", mode, width, q, g.Triples, a.Frag)
				cfg := Config{Mode: mode, EvalWorkers: width}
				res, err := e.Execute(q, cfg)
				over[width] = errors.Is(err, ErrBudget)
				switch {
				case over[width]:
				case err != nil:
					t.Fatalf("%s: %v", at, err)
				default:
					if got := projectedRows(res); !sameRows(got, want) {
						t.Fatalf("%s: ordered rows\n got %v\nwant %v", at, got, want)
					}
					if sum := shipmentSum(&res.Stats); sum != res.Stats.TotalShipment {
						t.Fatalf("%s: init+cand+partial+lec+asm = %d, total = %d", at, sum, res.Stats.TotalShipment)
					}
					if width == 1 {
						stats[mode] = res.Stats
					}
				}
				if over[width] != over[1] {
					t.Fatalf("%s: over budget %v, at width 1 %v", at, over[width], over[1])
				}

				streamed, err := streamRows(e, q, cfg)
				switch {
				case errors.Is(err, ErrBudget):
					continue
				case err != nil:
					t.Fatalf("%s streamed: %v", at, err)
				}
				if !subsetting {
					if !sameMultiset(streamed, want) {
						t.Fatalf("%s: streamed rows\n got %v\nwant %v", at, streamed, want)
					}
					continue
				}
				if len(streamed) != len(want) {
					t.Fatalf("%s: streamed %d rows, want %d", at, len(streamed), len(want))
				}
				if !subMultiset(streamed, answer) {
					t.Fatalf("%s: streamed rows %v, more often than the answer %v has them", at, streamed, answer)
				}
			}
		}
		if len(stats) < len(allModes) {
			return // a mode ran over the budget
		}
		basic, lo, full := stats[Basic], stats[LO], stats[Full]
		if full.NumPartialMatches > lo.NumPartialMatches {
			t.Errorf("Full found %d partial matches, LO %d", full.NumPartialMatches, lo.NumPartialMatches)
		}
		if lo.NumRetainedPartialMatches > basic.NumRetainedPartialMatches || full.NumRetainedPartialMatches > basic.NumRetainedPartialMatches {
			t.Errorf("retained %d (LO) / %d (Full) > Basic's %d",
				lo.NumRetainedPartialMatches, full.NumRetainedPartialMatches, basic.NumRetainedPartialMatches)
		}
	})
}
