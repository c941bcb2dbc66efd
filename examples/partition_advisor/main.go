// Partition advisor demonstrates Section VII and the workload-aware
// loop built on top of it.
//
// Act 1 evaluates the paper's cost model CostPartitioning(F) = E_F(V) ×
// max|E_i ∪ E_i^c| for the three strategies on a LUBM-style graph and
// shows the choice reflected in actual query behaviour.
//
// Act 2 closes the feedback loop: a skewed query mix (80% complex
// cross-fragment joins) is fed into a query log, the workload-weighted
// cost model reweights crossing edges by how often the traffic actually
// traverses them, and the advisor's recommendation — different from the
// data-only pick — is applied with DB.Repartition. Serving the same mix
// on both picks shows the workload-aware one generating far less
// partial-match crossing traffic, which is the whole point.
package main

import (
	"context"
	"fmt"
	"log"

	"gstored"
)

func main() {
	ds := gstored.GenerateLUBM(8)
	fmt.Printf("LUBM-style graph: %d triples\n\n", ds.Graph.Len())

	fmt.Println("=== Act 1: the data-only Section VII cost model ===")
	fmt.Printf("%-14s %12s %10s %10s %10s\n", "strategy", "cost", "E_F(V)", "maxEdges", "crossing")
	best, bestCost := "", 0.0
	for _, name := range []string{"hash", "semantic-hash", "metis"} {
		c, err := gstored.PartitionCost(ds.Graph, name, 12)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s %12.1f %10.2f %10d %10d\n", name, c.Cost, c.EV, c.MaxFragmentEdges, c.NumCrossing)
		if best == "" || c.Cost < bestCost {
			best, bestCost = name, c.Cost
		}
	}
	fmt.Printf("\nSection VII selection: %s\n\n", best)

	// Show the consequence on a cross-university query (LQ6).
	bq, err := ds.Query("LQ6")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %12s %14s %14s\n", "strategy", "matches", "partial match", "PM traffic KB")
	for _, name := range []string{"hash", "semantic-hash", "metis"} {
		db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 12, Strategy: name})
		if err != nil {
			log.Fatal(err)
		}
		res, err := db.Query(bq.SPARQL)
		if err != nil {
			log.Fatal(err)
		}
		s := res.Stats
		fmt.Printf("%-14s %12d %14d %14.2f\n",
			name, s.NumMatches, s.NumPartialMatches,
			float64(s.LECShipment+s.AssemblyShipment)/1024)
	}
	fmt.Println("\nfewer crossing edges ⇒ fewer partial matches ⇒ less partial-match traffic —")
	fmt.Println("exactly what the Section VII cost model predicts.")

	fmt.Println("\n=== Act 2: the workload changes the verdict ===")
	// A skewed serving mix: 80% of the traffic is LQ1/LQ7-style complex
	// cross-fragment joins; stars (LQ2, LQ4) and the selective LQ6 make
	// up the rest. The data-only model never sees this skew.
	mix := map[string]int{"LQ1": 40, "LQ7": 40, "LQ6": 10, "LQ2": 5, "LQ4": 5}
	fmt.Printf("query mix (per 100 requests): %v\n\n", mix)

	db, err := gstored.Open(ds.Graph, gstored.Config{Sites: 12, Strategy: "hash"})
	if err != nil {
		log.Fatal(err)
	}

	// In production `gstored serve` feeds this log on every answered
	// query; here we replay the mix by hand.
	qlog := gstored.NewQueryLog(0)
	for name, n := range mix {
		bq, err := ds.Query(name)
		if err != nil {
			log.Fatal(err)
		}
		q, err := db.ParseReadOnly(bq.SPARQL)
		if err != nil {
			log.Fatal(err)
		}
		res, err := db.QueryGraphContext(context.Background(), q)
		if err != nil {
			log.Fatal(err)
		}
		for i := 0; i < n; i++ {
			qlog.Observe(name, bq.SPARQL, q, res.Stats)
		}
	}

	rec, err := db.Advise(qlog.Snapshot().Workload(0), 4, 8, 12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-14s %4s %14s %14s\n", "strategy", "k", "workload cost", "data cost")
	for _, c := range rec.Candidates {
		fmt.Printf("%-14s %4d %14.1f %14.1f\n", c.Strategy, c.K, c.WorkloadCost.Cost, c.DataCost.Cost)
	}
	fmt.Printf("\nworkload-weighted recommendation: %s, k=%d\n", rec.Strategy, rec.K)
	fmt.Printf("data-only §VII selection:         %s, k=%d\n", rec.DataStrategy, rec.DataK)
	if !rec.Differs() {
		fmt.Println("(the workload agrees with the data-only model on this mix)")
		return
	}

	// Apply each pick with an online hot-swap and serve the mix on it.
	fmt.Printf("\n%-16s %-14s %4s %14s %14s %12s\n", "pick", "strategy", "k", "partial match", "crossing", "traffic KB")
	for _, cfg := range []struct {
		label, strategy string
		k               int
	}{
		{"data-only", rec.DataStrategy, rec.DataK},
		{"workload-aware", rec.Strategy, rec.K},
	} {
		a, err := db.PlanPartition(cfg.strategy, cfg.k)
		if err != nil {
			log.Fatal(err)
		}
		if err := db.Repartition(a); err != nil {
			log.Fatal(err)
		}
		var pms, crossing int
		var kb float64
		for name, n := range mix {
			bq, err := ds.Query(name)
			if err != nil {
				log.Fatal(err)
			}
			res, err := db.Query(bq.SPARQL)
			if err != nil {
				log.Fatal(err)
			}
			pms += n * res.Stats.NumPartialMatches
			crossing += n * res.Stats.NumCrossingMatches
			kb += float64(n) * float64(res.Stats.LECShipment+res.Stats.AssemblyShipment) / 1024
		}
		fmt.Printf("%-16s %-14s %4d %14d %14d %12.1f\n", cfg.label, cfg.strategy, cfg.k, pms, crossing, kb)
	}
	fmt.Println("\nthe data-only model optimizes for edges nobody queries; weighting the")
	fmt.Println("crossing edges by observed traversal frequency moves the hot joins inside")
	fmt.Println("fragments, and the partial-match traffic of the real mix collapses.")
}
