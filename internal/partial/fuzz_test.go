package partial

import (
	"fmt"
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// FuzzCompute holds Compute to Definition 5 on small multigraphs: the
// input picks a query shape, two or three fragments, a fragment for each
// of eight vertices, and up to twenty edges over three predicates; at
// widths 1 and 3 Compute must return exactly the matches
// definitionMatches has, each once. The shapes reach both seed domains.
func FuzzCompute(f *testing.F) {
	x, y, z, w := query.Var("x"), query.Var("y"), query.Var("z"), query.Var("w")
	p0, p1, p2 := query.IRI("p0"), query.IRI("p1"), query.IRI("p2")
	v0, v1, v2, v3 := query.IRI("v0"), query.IRI("v1"), query.IRI("v2"), query.IRI("v3")
	shapes := [][][3]query.Node{
		{{x, p0, y}, {y, p1, z}, {z, p2, w}}, // path
		{{x, p0, y}, {y, p1, z}, {z, p2, x}}, // triangle
		{{x, p0, y}, {x, p1, z}, {x, p2, w}}, // fork
		{{x, query.Var("l"), y}, {y, p1, z}}, // path with a label variable
		{{x, p0, y}, {x, query.Var("l"), y}}, // parallel edges
		{{x, query.Var("l"), x}, {x, p0, y}}, // self-loop
		{{v0, p0, y}, {y, p1, z}},            // constant endpoint
		{{x, p0, y}, {y, query.Var("l"), y}, {y, query.Var("l"), z}},
		// Every variable joins a constant: the candidate seed domain.
		{{x, p0, v1}, {x, p1, y}, {y, p2, v2}}, // LQ6's path
		{{v0, p0, y}, {y, p1, z}, {z, p2, v0}}, // triangle through a constant
		{{v0, query.Var("l"), y}, {y, p1, v3}}, // label variable at a constant
		{{v0, p0, v1}, {v1, p1, y}},            // an edge with two constant ends
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const header = 2 + 8
		if len(data) < header+3 {
			return
		}
		k := 2 + int(data[1])%2
		g := rdf.NewGraph()
		a := &partition.Assignment{K: k, Frag: map[rdf.TermID]int{}}
		for edges := data[header:]; len(edges) >= 3 && len(g.Triples) < 20; edges = edges[3:] {
			s, o := int(edges[0])%8, int(edges[2])%8
			g.AddIRIs(fmt.Sprintf("v%d", s), fmt.Sprintf("p%d", edges[1]%3), fmt.Sprintf("v%d", o))
			tr := g.Triples[len(g.Triples)-1]
			a.Frag[tr.S], a.Frag[tr.O] = int(data[2+s])%k, int(data[2+o])%k
		}
		d, err := fragment.Build(store.FromGraph(g), a)
		if err != nil {
			t.Skip(err)
		}
		b := query.NewBuilder(g.Dict)
		for _, p := range shapes[int(data[0])%len(shapes)] {
			b.Triple(p[0], p[1], p[2])
		}
		q := b.MustBuild()
		for _, fr := range d.Fragments {
			if _, err := checkAgainstDefinition(fr, q, 1, 3); err != nil {
				t.Fatalf("%v\nedges %v\nassignment %v", err, g.Triples, a.Frag)
			}
		}
	})
}
