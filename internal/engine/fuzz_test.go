package engine

import (
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
//	[2]      1 + b%4 triple patterns, read from
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

// oracleKeys is the centralized answer to q: the global store's matches,
// canonically sorted, through the solution modifiers, as projected keys.
// It shares no code with candidates, partial, lec or assembly. It does
// share store.MatchFunc with the engine's local search, the star path's
// and each site's: TestMatchAgainstBruteForce is what checks that search.
func oracleKeys(st *store.Store, q *query.Graph) []string {
	var rows []Row
	for _, b := range st.Match(q) {
		rows = append(rows, Row(b.Vars))
	}
	sortRows(rows)
	buf := newProjectionBuffer(q)
	var keys []string
	for _, r := range applyModifiers(q, rows) {
		keys = append(keys, projectRow(q, r, buf).Key())
	}
	return keys
}

// FuzzExecute holds the whole pipeline — candidate sets, partial
// evaluation, LEC pruning and assembly, the star path and the component
// split — to a centralized oracle on layouts no partitioner produces:
// empty, one-vertex and all-crossing fragments. Every mode at widths 1
// and 4 must serve the oracle's rows in its order, and stream the same
// multiset (under LIMIT/OFFSET: as many rows, each from the answer). The
// golden's relations hold on every input: Full's partial matches are at
// most LO's, LO's and Full's retained matches at most Basic's, and the
// stage shipments sum to the total.
func FuzzExecute(f *testing.F) {
	// The paper's running example in twelve vertices: Fig. 1's three
	// fragments without s2:Phi4 and the literals nothing reaches, name and
	// label sharing p2. Four crossing matches, as in the paper.
	f.Add(fuzzInput(3, 0,
		[][3]byte{{x0, p1, x1}, {x2, p0, x0}, {x1, p2, x3}, {x2, p2, c1}},
		[12]byte{0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2},
		[3]byte{0, p2, 1}, [3]byte{3, p2, 2}, [3]byte{4, p1, 5}, [3]byte{5, p2, 6},
		[3]byte{4, p1, 7}, [3]byte{7, p2, 8}, [3]byte{9, p1, 10}, [3]byte{10, p2, 11},
		[3]byte{0, p0, 4}, [3]byte{4, p1, 3}, [3]byte{0, p0, 9}))
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
		want := oracleKeys(global, q)
		// What LIMIT and OFFSET may pick from.
		whole := *q
		whole.HasLimit, whole.Offset = false, 0
		answer := multiset(oracleKeys(global, &whole))
		subsetting := q.HasLimit || q.Offset > 0

		e := New(d)
		stats := make(map[Mode]Stats)
		for _, mode := range allModes {
			for _, width := range []int{1, 4} {
				at := fmt.Sprintf("%v width %d on %v, edges %v, layout %v", mode, width, q, g.Triples, a.Frag)
				got, s := orderedKeys(t, e, q, mode, width)
				if !slices.Equal(got, want) {
					t.Fatalf("%s: ordered rows\n got %q\nwant %q", at, got, want)
				}
				if sum := shipmentSum(&s); sum != s.TotalShipment {
					t.Fatalf("%s: init+cand+partial+lec+asm = %d, total = %d", at, sum, s.TotalShipment)
				}
				if width == 1 {
					stats[mode] = s
				}

				streamed := streamedKeys(t, e, q, mode, width)
				if !subsetting {
					if !sameMultiset(streamed, want) {
						t.Fatalf("%s: streamed rows\n got %q\nwant %q", at, streamed, want)
					}
					continue
				}
				if len(streamed) != len(want) {
					t.Fatalf("%s: streamed %d rows, want %d", at, len(streamed), len(want))
				}
				for key, n := range multiset(streamed) {
					if n > answer[key] {
						t.Fatalf("%s: streamed row %q %d times, the answer has it %d times", at, key, n, answer[key])
					}
				}
			}
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
