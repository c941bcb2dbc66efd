package gstored

import (
	"context"
	"maps"
	"strings"
	"testing"

	"gstored/internal/rdf"
)

// The FuzzUpdate vocabulary: 3 subjects × 2 predicates × 3 objects. Half
// of its eight terms (s2, p1, o1, o2) are absent from the seed database,
// which holds s0 p0 o0 and s1 p0 o0.
var (
	fuzzSubjects   = fuzzTerms("s0", "s1", "s2")
	fuzzPredicates = fuzzTerms("p0", "p1")
	fuzzObjects    = fuzzTerms("o0", "o1", "o2")
)

func fuzzTerms(names ...string) []rdf.Term {
	ts := make([]rdf.Term, len(names))
	for i, n := range names {
		ts[i] = rdf.NewIRI("http://ex/" + n)
	}
	return ts
}

// fuzzTriple picks a vocabulary triple by b mod 18.
func fuzzTriple(b byte) [3]rdf.Term {
	i := int(b) % 18
	return [3]rdf.Term{fuzzSubjects[i%3], fuzzPredicates[i/3%2], fuzzObjects[i/6]}
}

// FuzzUpdate pins DB.Update's netting rule against a sequential set
// model: operations apply in order, so the last one naming a triple
// decides its presence. An input decodes byte by byte (a missing byte
// reads as 0): 1 + b%4 requests; per request 1 + b%3 operations; per
// operation DELETE DATA when b&1 is set, else INSERT DATA, over
// 1 + (b>>1)%3 triples; per triple one fuzzTriple byte. After every
// Update the live triples must equal the model, Inserted and Deleted
// must equal the model's net change, and a request that nets to nothing
// must keep the epoch and the dictionary as they were.
func FuzzUpdate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		g := NewGraph()
		model := map[[3]string]bool{}
		for _, tr := range [][3]rdf.Term{fuzzTriple(0), fuzzTriple(1)} {
			g.Add(tr[0], tr[1], tr[2])
			model[[3]string{tr[0].String(), tr[1].String(), tr[2].String()}] = true
		}
		db, err := Open(g, Config{Sites: 2})
		if err != nil {
			t.Fatal(err)
		}
		for range 1 + next()%4 {
			before := maps.Clone(model)
			var ops []string
			for range 1 + next()%3 {
				b := next()
				form, present := "INSERT DATA", true
				if b&1 != 0 {
					form, present = "DELETE DATA", false
				}
				var triples []string
				for range 1 + (b>>1)%3 {
					tr := fuzzTriple(next())
					k := [3]string{tr[0].String(), tr[1].String(), tr[2].String()}
					triples = append(triples, strings.Join(k[:], " "))
					if present {
						model[k] = true
					} else {
						delete(model, k)
					}
				}
				ops = append(ops, form+" { "+strings.Join(triples, " . ")+" }")
			}
			request := strings.Join(ops, " ;\n")
			epoch, terms := db.Epoch(), db.Graph.Dict.Len()
			stats, err := db.Update(context.Background(), request)
			if err != nil {
				t.Fatalf("%s: %v", request, err)
			}
			inserted, deleted := 0, 0
			for k := range model {
				if !before[k] {
					inserted++
				}
			}
			for k := range before {
				if !model[k] {
					deleted++
				}
			}
			if stats.Inserted != inserted || stats.Deleted != deleted {
				t.Fatalf("%s: stats %+v, the model nets +%d -%d", request, stats, inserted, deleted)
			}
			live := map[[3]string]bool{}
			d := db.Graph.Dict
			for _, tr := range db.Distributed().Global.Triples() {
				live[[3]string{d.MustDecode(tr.S).String(), d.MustDecode(tr.P).String(), d.MustDecode(tr.O).String()}] = true
			}
			if !maps.Equal(live, model) {
				t.Fatalf("%s: live triples %v, model %v", request, live, model)
			}
			if inserted+deleted == 0 {
				if db.Epoch() != epoch || stats.Epoch != epoch || db.Graph.Dict.Len() != terms {
					t.Fatalf("%s: a no-op moved the epoch %d → %d (stats %d) or the dictionary %d → %d terms",
						request, epoch, db.Epoch(), stats.Epoch, terms, db.Graph.Dict.Len())
				}
			} else {
				checkDBInvariants(t, db)
			}
		}
	})
}
