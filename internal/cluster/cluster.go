// Package cluster hosts the paper's distributed environment (§VIII-A: a
// 12-machine MPI cluster): the Site interface the coordinator scatters
// stage work through and the in-process implementation (one LocalSite
// per fragment, parallel stage execution on the evaluation pool). The
// remote package provides the other Site implementation: worker
// processes reached over an RPC transport.
package cluster

import (
	"context"
	"time"

	"gstored/internal/fragment"
	"gstored/internal/pool"
)

// Cluster is the deployment the engine scatters through: one Site per
// fragment, ordered by ID with IDs matching the graph's fragment IDs.
// Sites are interface values — in-process LocalSites by default, RPC
// clients in worker mode.
type Cluster struct {
	Sites []Site
	// Graph is the distributed graph the cluster hosts. The coordinator
	// keeps it in both modes: it owns the data, plans against the global
	// cardinality table, and ships fragments to workers from it.
	Graph *fragment.Distributed
}

// ParallelPool runs fn on every site through the given worker pool and
// returns the stage's wall-clock duration (stages are barriers). fn
// receives the site's index alongside the site; indexes equal site IDs.
// Concurrency is bounded by the pool's width, and a sequential pool (nil
// or width 1) visits sites strictly in site order — the property the
// -eval-workers=1 oracle relies on.
func (c *Cluster) ParallelPool(p *pool.Pool, fn func(i int, s Site)) time.Duration {
	start := time.Now()
	tasks := make([]func(), len(c.Sites))
	for i, s := range c.Sites {
		tasks[i] = func() { fn(i, s) }
	}
	p.Do(tasks...)
	return time.Since(start)
}

// CancelPoll adapts ctx into the polling hook the store, partial, lec
// and assembly layers accept; nil when ctx can never be canceled, so the
// hot loops skip the poll entirely.
func CancelPoll(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	return func() bool { return ctx.Err() != nil }
}
