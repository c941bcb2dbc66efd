// Quickstart: build a small RDF graph by hand — the paper's Section I
// example about philosophers — distribute it over three sites, and run the
// paper's example query ("all people influencing Crispin Wright and their
// interests") through the full gStoreD pipeline.
package main

import (
	"fmt"
	"log"
	"strings"

	"gstored"
)

func main() {
	g := gstored.NewGraph()
	ns := "http://example.org/"
	iri := func(s string) gstored.Term { return gstored.IRI(ns + s) }

	add := func(s string, p string, o gstored.Term) {
		g.Add(iri(s), iri(p), o)
	}
	// The data of the paper's Fig. 1, slightly simplified.
	add("CrispinWright", "name", gstored.LangLiteral("Crispin Wright", "en"))
	add("CrispinWright", "influencedBy", iri("MichaelDummett"))
	add("CrispinWright", "influencedBy", iri("LudwigWittgenstein"))
	add("MichaelDummett", "mainInterest", iri("Metaphysics"))
	add("MichaelDummett", "mainInterest", iri("PhilosophyOfLanguage"))
	add("LudwigWittgenstein", "mainInterest", iri("Logic"))
	add("Metaphysics", "label", gstored.LangLiteral("Metaphysics", "en"))
	add("PhilosophyOfLanguage", "label", gstored.LangLiteral("Philosophy of language", "en"))
	add("Logic", "label", gstored.LangLiteral("Logic", "en"))

	// Partition over 3 simulated sites, as in the paper's running example.
	db, err := gstored.Open(g, gstored.Config{Sites: 3})
	if err != nil {
		log.Fatal(err)
	}

	res, err := db.Query(`
SELECT ?p2 ?l WHERE {
  ?t <` + ns + `label> ?l .
  ?p1 <` + ns + `influencedBy> ?p2 .
  ?p2 <` + ns + `mainInterest> ?t .
  ?p1 <` + ns + `name> "Crispin Wright"@en .
}`)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("?" + strings.Join(db.Columns(res.Query), "\t?"))
	for _, row := range db.Rows(res) {
		fmt.Println(strings.Join(row, "\t"))
	}
	s := res.Stats
	fmt.Printf("\n%d matches (%d crossing sites) — %d partial matches computed, %d bytes shipped\n",
		s.NumMatches, s.NumCrossingMatches, s.NumPartialMatches, s.TotalShipment)
}
