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
