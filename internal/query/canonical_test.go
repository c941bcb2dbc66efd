package query

import (
	"testing"

	"gstored/internal/rdf"
)

func canonGraph(t *testing.T, dict *rdf.Dictionary, build func(b *Builder)) *Graph {
	t.Helper()
	b := NewBuilder(dict)
	build(b)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestCanonicalKeyVariableRenaming(t *testing.T) {
	dict := rdf.NewDictionary()
	q1 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), IRI("p"), Var("y"))
		b.Triple(Var("y"), IRI("q"), Var("z"))
		b.Select("x", "z")
	})
	q2 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("alpha"), IRI("p"), Var("beta"))
		b.Triple(Var("beta"), IRI("q"), Var("gamma"))
		b.Select("alpha", "gamma")
	})
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Errorf("renamed variants should share a key:\n%q\n%q", CanonicalKey(q1), CanonicalKey(q2))
	}
}

func TestCanonicalKeyTripleReordering(t *testing.T) {
	dict := rdf.NewDictionary()
	q1 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), IRI("p"), Var("y"))
		b.Triple(Var("y"), IRI("q"), Var("z"))
		b.Select("x", "z")
	})
	q2 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("b"), IRI("q"), Var("c"))
		b.Triple(Var("a"), IRI("p"), Var("b"))
		b.Select("a", "c")
	})
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Errorf("reordered variants should share a key:\n%q\n%q", CanonicalKey(q1), CanonicalKey(q2))
	}
	// Under SELECT * the column order follows the query's own variable
	// order, so it is deliberately part of the key (see CanonicalKey docs):
	// cached projected rows must be directly servable.
}

func TestCanonicalKeyDistinguishesStructure(t *testing.T) {
	dict := rdf.NewDictionary()
	base := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), IRI("p"), Var("y"))
		b.Triple(Var("y"), IRI("q"), Var("z"))
	})
	cases := map[string]*Graph{
		"different predicate": canonGraph(t, dict, func(b *Builder) {
			b.Triple(Var("x"), IRI("p"), Var("y"))
			b.Triple(Var("y"), IRI("r"), Var("z"))
		}),
		"different shape (shared subject)": canonGraph(t, dict, func(b *Builder) {
			b.Triple(Var("x"), IRI("p"), Var("y"))
			b.Triple(Var("x"), IRI("q"), Var("z"))
		}),
		"constant object": canonGraph(t, dict, func(b *Builder) {
			b.Triple(Var("x"), IRI("p"), Var("y"))
			b.Triple(Var("y"), IRI("q"), IRI("o"))
		}),
		"extra edge": canonGraph(t, dict, func(b *Builder) {
			b.Triple(Var("x"), IRI("p"), Var("y"))
			b.Triple(Var("y"), IRI("q"), Var("z"))
			b.Triple(Var("z"), IRI("q"), Var("x"))
		}),
		"different projection": canonGraph(t, dict, func(b *Builder) {
			b.Triple(Var("x"), IRI("p"), Var("y"))
			b.Triple(Var("y"), IRI("q"), Var("z"))
			b.Select("x")
		}),
	}
	for name, g := range cases {
		if CanonicalKey(g) == CanonicalKey(base) {
			t.Errorf("%s: key should differ from base", name)
		}
	}
}

func TestCanonicalKeyVariablePredicateAndSelfLoop(t *testing.T) {
	dict := rdf.NewDictionary()
	q1 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), Var("p"), Var("x"))
	})
	q2 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("s"), Var("lab"), Var("s"))
	})
	q3 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("s"), Var("lab"), Var("o"))
	})
	if CanonicalKey(q1) != CanonicalKey(q2) {
		t.Error("renamed self-loop variants should share a key")
	}
	if CanonicalKey(q1) == CanonicalKey(q3) {
		t.Error("self-loop must not collide with a two-vertex edge")
	}
}

func TestCanonicalKeyProjectionOrderMatters(t *testing.T) {
	dict := rdf.NewDictionary()
	q1 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), IRI("p"), Var("y"))
		b.Select("x", "y")
	})
	q2 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), IRI("p"), Var("y"))
		b.Select("y", "x")
	})
	if CanonicalKey(q1) == CanonicalKey(q2) {
		t.Error("projection order is column order and must be part of the key")
	}
}

// TestCanonicalKeyModifierCollision is the aliasing regression: before
// modifiers were embedded in the key, SELECT DISTINCT and its plain twin
// (and every LIMIT/OFFSET window of a query) canonicalized identically,
// so the result cache and singleflight would serve one query's answer
// for the other.
func TestCanonicalKeyModifierCollision(t *testing.T) {
	dict := rdf.NewDictionary()
	pattern := func(mod func(b *Builder)) *Graph {
		return canonGraph(t, dict, func(b *Builder) {
			b.Triple(Var("x"), IRI("p"), Var("y"))
			b.Select("y")
			if mod != nil {
				mod(b)
			}
		})
	}
	variants := map[string]*Graph{
		"plain":           pattern(nil),
		"distinct":        pattern(func(b *Builder) { b.Distinct() }),
		"limit10":         pattern(func(b *Builder) { b.Limit(10) }),
		"limit20":         pattern(func(b *Builder) { b.Limit(20) }),
		"limit0":          pattern(func(b *Builder) { b.Limit(0) }),
		"offset10":        pattern(func(b *Builder) { b.Offset(10) }),
		"limit10offset5":  pattern(func(b *Builder) { b.Limit(10).Offset(5) }),
		"limit5offset10":  pattern(func(b *Builder) { b.Limit(5).Offset(10) }),
		"distinctLimit10": pattern(func(b *Builder) { b.Distinct().Limit(10) }),
	}
	keys := map[string]string{}
	for name, g := range variants {
		k := CanonicalKey(g)
		for other, ok := range keys {
			if ok == k {
				t.Errorf("variants %s and %s alias to one key %q", name, other, k)
			}
		}
		keys[name] = k
	}
	// Identical modifiers still coalesce, and OFFSET 0 is the spec-equal
	// spelling of "no OFFSET".
	if CanonicalKey(pattern(func(b *Builder) { b.Distinct().Limit(10) })) != keys["distinctLimit10"] {
		t.Error("identical modified twins should share a key")
	}
	if CanonicalKey(pattern(func(b *Builder) { b.Offset(0) })) != keys["plain"] {
		t.Error("OFFSET 0 should share the plain query's key")
	}
}

// canonicalFixtures are LUBM-shaped queries over one dictionary: LQ4's
// star, LQ1's triangle, a variable predicate on a self-loop under every
// modifier, and a read-only parse whose unknown constant is a
// placeholder.
func canonicalFixtures(t *testing.T) (lq4 *Graph, all []*Graph) {
	dict := rdf.NewDictionary()
	lq4 = canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("x"), IRI("ub:worksFor"), IRI("dept0"))
		b.Triple(Var("x"), IRI("ub:name"), Var("n"))
		b.Triple(Var("x"), IRI("ub:emailAddress"), Var("e"))
		b.Select("x", "n", "e")
	})
	lq1 := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("y"), IRI("ub:advisor"), Var("x"))
		b.Triple(Var("y"), IRI("ub:takesCourse"), Var("c"))
		b.Triple(Var("x"), IRI("ub:teacherOf"), Var("c"))
		b.Select("x", "y", "c")
	})
	loop := canonGraph(t, dict, func(b *Builder) {
		b.Triple(Var("s"), Var("lab"), Var("s"))
		b.Triple(Var("s"), IRI("p"), Var("o"))
		b.Distinct().Limit(10).Offset(3)
	})
	ro := NewBuilderReadOnly(dict)
	ro.Triple(Var("x"), IRI("ub:name"), IRI("http://ex/unknown"))
	ro.Triple(Var("x"), IRI("p"), Var("y"))
	ro.Triple(Var("y"), IRI("p"), Var("z"))
	ro.Triple(Var("z"), IRI("p"), Var("x"))
	ro.Select("z")
	placeholder, err := ro.Build()
	if err != nil {
		t.Fatal(err)
	}
	return lq4, []*Graph{lq4, lq1, loop, placeholder}
}

// TestCanonicalKeyBytes pins the keys' exact bytes: they key the result
// table and the slow log, so a rendering change must be deliberate.
func TestCanonicalKeyBytes(t *testing.T) {
	_, graphs := canonicalFixtures(t)
	want := []string{
		"v0 -c1-> c2;v0 -c3-> v1;v0 -c4-> v2;|p:0,1,2,",
		"v0 -c5-> v1;v0 -c6-> v2;v1 -c7-> v2;|p:1,0,2,",
		"v0 -c8-> v1;v0 -v2-> v0;|p:0,2,1,|d|l10|o3",
		"v0 -c3-> u<http://ex/unknown>;v0 -c8-> v1;v1 -c8-> v2;v2 -c8-> v0;|p:2,",
	}
	for i, g := range graphs {
		if got := CanonicalKey(g); got != want[i] {
			t.Errorf("key %d = %q, want %q", i, got, want[i])
		}
	}
}

// TestCanonicalKeyAllocations pins what one LQ4-shaped key costs: the
// renderings of every refinement round share one buffer, which the key
// is appended to (43 allocations when each label and constant was a
// fmt.Sprintf of its own).
func TestCanonicalKeyAllocations(t *testing.T) {
	lq4, _ := canonicalFixtures(t)
	if n := testing.AllocsPerRun(100, func() { _ = CanonicalKey(lq4) }); n > 3 {
		t.Errorf("an LQ4-shaped key costs %.0f allocations, want at most 3", n)
	}
}
