package partition

import (
	"fmt"
	"sort"

	"gstored/internal/rdf"
	"gstored/internal/store"
)

// Metis is a METIS-like multilevel min-edge-cut partitioner [14]: heavy-edge
// matching coarsens the graph, greedy region growing partitions the
// coarsest level, and Fiduccia–Mattheyses-style boundary refinement is
// applied while uncoarsening. Like the real METIS it minimizes the edge cut
// under a vertex-balance constraint, so fragments can be imbalanced in
// *edge* count — exactly the behaviour Section VIII-D attributes to METIS.
type Metis struct{}

const (
	// maxImbalance bounds fragment vertex weight at maxImbalance ×
	// (total/k).
	maxImbalance = 1.10
	// coarsenPerSite stops coarsening near coarsenPerSite×k vertices.
	coarsenPerSite = 40
	// refinePasses is the number of refinement sweeps per level.
	refinePasses = 4
)

// Name implements Strategy.
func (Metis) Name() string { return "metis" }

type medge struct{ to, w int }

type mgraph struct {
	vwgt []int
	adj  [][]medge
}

func (g *mgraph) n() int { return len(g.vwgt) }

// Partition implements Strategy.
func (Metis) Partition(st *store.Store, k int) (*Assignment, error) {
	if k <= 0 {
		return nil, fmt.Errorf("partition: metis: k = %d", k)
	}

	verts := sortedVertices(st)
	idx := make(map[rdf.TermID]int, len(verts))
	for i, v := range verts {
		idx[v] = i
	}
	g := buildMGraph(st, verts, idx)

	a := &Assignment{K: k, Frag: make(map[rdf.TermID]int, len(verts)), StrategyName: "metis"}
	if g.n() == 0 {
		return a, nil
	}
	if k >= g.n() {
		for i, v := range verts {
			a.Frag[v] = i % k
		}
		return a, nil
	}

	// Coarsening phase.
	graphs := []*mgraph{g}
	var maps [][]int // maps[l][fineVertex] = coarseVertex
	for graphs[len(graphs)-1].n() > coarsenPerSite*k {
		cur := graphs[len(graphs)-1]
		coarse, fineToCoarse := coarsen(cur)
		if coarse.n() >= cur.n() { // no progress (e.g. no edges)
			break
		}
		graphs = append(graphs, coarse)
		maps = append(maps, fineToCoarse)
	}

	// Initial partition on the coarsest graph.
	coarsest := graphs[len(graphs)-1]
	part := growRegions(coarsest, k)
	refine(coarsest, part, k)

	// Uncoarsening with refinement.
	for l := len(graphs) - 2; l >= 0; l-- {
		fine := graphs[l]
		finePart := make([]int, fine.n())
		for v := 0; v < fine.n(); v++ {
			finePart[v] = part[maps[l][v]]
		}
		part = finePart
		refine(fine, part, k)
	}

	for i, v := range verts {
		a.Frag[v] = part[i]
	}
	return a, nil
}

// buildMGraph folds the directed multigraph into an undirected weighted
// simple graph (parallel edges accumulate weight; self loops are dropped —
// they cannot be cut).
func buildMGraph(st *store.Store, verts []rdf.TermID, idx map[rdf.TermID]int) *mgraph {
	n := len(verts)
	w := make([]map[int]int, n)
	for i := range w {
		w[i] = make(map[int]int)
	}
	for _, s := range st.Vertices() {
		si := idx[s]
		for _, he := range st.Adjacency(s, true, rdf.NoTerm) {
			oi := idx[he.V]
			if si == oi {
				continue
			}
			w[si][oi]++
			w[oi][si]++
		}
	}
	g := &mgraph{vwgt: make([]int, n), adj: make([][]medge, n)}
	for i := 0; i < n; i++ {
		g.vwgt[i] = 1
		g.adj[i] = make([]medge, 0, len(w[i]))
		tos := make([]int, 0, len(w[i]))
		for to := range w[i] {
			tos = append(tos, to)
		}
		sort.Ints(tos)
		for _, to := range tos {
			g.adj[i] = append(g.adj[i], medge{to: to, w: w[i][to]})
		}
	}
	return g
}

// coarsen applies one level of heavy-edge matching.
func coarsen(g *mgraph) (*mgraph, []int) {
	n := g.n()
	match := make([]int, n)
	for i := range match {
		match[i] = -1
	}
	// Visit in ascending degree order: low-degree vertices get first pick,
	// which empirically yields better matchings.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(g.adj[order[a]]), len(g.adj[order[b]])
		if da != db {
			return da < db
		}
		return order[a] < order[b]
	})
	for _, v := range order {
		if match[v] != -1 {
			continue
		}
		best, bestW := -1, -1
		for _, e := range g.adj[v] {
			if match[e.to] == -1 && e.w > bestW {
				best, bestW = e.to, e.w
			}
		}
		if best == -1 {
			match[v] = v // unmatched: survives alone
		} else {
			match[v] = best
			match[best] = v
		}
	}
	fineToCoarse := make([]int, n)
	nc := 0
	for v := 0; v < n; v++ {
		if match[v] >= v { // representative of its pair (or singleton)
			fineToCoarse[v] = nc
			if match[v] != v {
				fineToCoarse[match[v]] = nc
			}
			nc++
		}
	}
	cw := make([]map[int]int, nc)
	cv := make([]int, nc)
	for i := range cw {
		cw[i] = make(map[int]int)
	}
	for v := 0; v < n; v++ {
		cvtx := fineToCoarse[v]
		cv[cvtx] += g.vwgt[v]
		for _, e := range g.adj[v] {
			ct := fineToCoarse[e.to]
			if ct != cvtx {
				cw[cvtx][ct] += e.w
			}
		}
	}
	coarse := &mgraph{vwgt: cv, adj: make([][]medge, nc)}
	for i := 0; i < nc; i++ {
		tos := make([]int, 0, len(cw[i]))
		for to := range cw[i] {
			tos = append(tos, to)
		}
		sort.Ints(tos)
		for _, to := range tos {
			// Each undirected edge was folded from both directions, so
			// weights already match on both sides.
			coarse.adj[i] = append(coarse.adj[i], medge{to: to, w: cw[i][to] / 1})
		}
	}
	return coarse, fineToCoarse
}

// growRegions produces an initial k-way partition by greedy BFS region
// growing balanced on vertex weight.
func growRegions(g *mgraph, k int) []int {
	n := g.n()
	part := make([]int, n)
	for i := range part {
		part[i] = -1
	}
	total := 0
	for _, w := range g.vwgt {
		total += w
	}
	target := (total + k - 1) / k

	assigned := 0
	for f := 0; f < k && assigned < n; f++ {
		// Seed: the unassigned vertex with the largest weight (hubs anchor
		// regions), ties to lowest index.
		seed := -1
		for v := 0; v < n; v++ {
			if part[v] == -1 && (seed == -1 || g.vwgt[v] > g.vwgt[seed]) {
				seed = v
			}
		}
		if seed == -1 {
			break
		}
		weight := 0
		queue := []int{seed}
		inQueue := map[int]bool{seed: true}
		for len(queue) > 0 && weight < target {
			v := queue[0]
			queue = queue[1:]
			if part[v] != -1 {
				continue
			}
			part[v] = f
			weight += g.vwgt[v]
			assigned++
			for _, e := range g.adj[v] {
				if part[e.to] == -1 && !inQueue[e.to] {
					inQueue[e.to] = true
					queue = append(queue, e.to)
				}
			}
		}
	}
	// Leftovers (disconnected remainder): round-robin to lightest parts.
	weights := make([]int, k)
	for v := 0; v < n; v++ {
		if part[v] >= 0 {
			weights[part[v]] += g.vwgt[v]
		}
	}
	for v := 0; v < n; v++ {
		if part[v] == -1 {
			light := 0
			for f := 1; f < k; f++ {
				if weights[f] < weights[light] {
					light = f
				}
			}
			part[v] = light
			weights[light] += g.vwgt[v]
		}
	}
	return part
}

// refine runs FM-style boundary refinement sweeps: move a vertex to the
// fragment it is most strongly connected to when that lowers the cut and
// respects the balance bound.
func refine(g *mgraph, part []int, k int) {
	n := g.n()
	total := 0
	for _, w := range g.vwgt {
		total += w
	}
	maxWeight := int(maxImbalance * float64(total) / float64(k))
	if maxWeight < 1 {
		maxWeight = 1
	}
	weights := make([]int, k)
	for v := 0; v < n; v++ {
		weights[part[v]] += g.vwgt[v]
	}
	conn := make([]int, k)
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for v := 0; v < n; v++ {
			if len(g.adj[v]) == 0 {
				continue
			}
			for f := range conn {
				conn[f] = 0
			}
			boundary := false
			for _, e := range g.adj[v] {
				conn[part[e.to]] += e.w
				if part[e.to] != part[v] {
					boundary = true
				}
			}
			if !boundary {
				continue
			}
			cur := part[v]
			best, bestGain := cur, 0
			for f := 0; f < k; f++ {
				if f == cur {
					continue
				}
				if weights[f]+g.vwgt[v] > maxWeight {
					continue
				}
				gain := conn[f] - conn[cur]
				if gain > bestGain || (gain == bestGain && gain > 0 && weights[f] < weights[best]) {
					best, bestGain = f, gain
				}
			}
			if best != cur && bestGain > 0 {
				weights[cur] -= g.vwgt[v]
				weights[best] += g.vwgt[v]
				part[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
}
