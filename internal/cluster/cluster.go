// Package cluster hosts the paper's distributed environment (§VIII-A: a
// 12-machine MPI cluster): the Site interface the coordinator scatters
// stage work through, the in-process implementation (one LocalSite per
// fragment, parallel stage execution on the evaluation pool), and a
// byte/message counter for the data-shipment numbers the paper reports,
// plus a configurable link model that converts shipments into
// communication-time estimates. The remote package provides the other
// Site implementation: worker processes reached over an RPC transport.
package cluster

import (
	"time"

	"gstored/internal/fragment"
	"gstored/internal/pool"
	"gstored/internal/rdf"
)

// LinkModel converts metered traffic into a communication-time estimate.
// The defaults approximate the paper's gigabit LAN: 0.1 ms per message and
// ~117 MiB/s of goodput.
type LinkModel struct {
	LatencyPerMessage time.Duration
	BytesPerSecond    float64
}

// DefaultLink is the link model used when none is configured.
var DefaultLink = LinkModel{
	LatencyPerMessage: 100 * time.Microsecond,
	BytesPerSecond:    117 << 20,
}

// Network counts one execution's shipment between the sites and the
// coordinator — the wire traffic the site replies measured, or the §IX
// cost-model estimate when nothing crossed a socket — and prices it
// under the link model. It is not safe for concurrent use: the engine
// counts after each stage's barrier.
type Network struct {
	Link     LinkModel
	Bytes    int64
	Messages int64
}

// NewNetwork returns a counter with the default link model.
func NewNetwork() *Network { return &Network{Link: DefaultLink} }

// Count records bytes shipped over messages messages.
func (n *Network) Count(bytes, messages int64) {
	n.Bytes += bytes
	n.Messages += messages
}

// EstimateTime converts the counted traffic into a communication-time
// estimate under the link model, assuming messages serialize through the
// coordinator (the pessimistic case the paper's data-shipment metric
// bounds).
func (n *Network) EstimateTime() time.Duration {
	link := n.Link
	if link.BytesPerSecond == 0 {
		link = DefaultLink
	}
	transfer := time.Duration(float64(n.Bytes) / link.BytesPerSecond * float64(time.Second))
	return transfer + time.Duration(n.Messages)*link.LatencyPerMessage
}

// Cluster is the deployment the engine scatters through: one Site per
// fragment plus a coordinator-side network meter. Sites are interface
// values — in-process LocalSites by default, RPC clients in worker mode.
type Cluster struct {
	Sites []Site
	Net   *Network
	Dict  *rdf.Dictionary
	// Graph is the distributed graph the cluster hosts. The coordinator
	// keeps it in both modes: it owns the data, plans against the global
	// cardinality table, and ships fragments to workers from it.
	Graph *fragment.Distributed
}

// New builds an in-process cluster over the fragments of d.
func New(d *fragment.Distributed) *Cluster {
	return NewWithSites(d, LocalSites(d, 1))
}

// NewWithSites builds a cluster over explicit Site implementations.
// Sites must be ordered by ID with IDs matching d's fragment IDs.
func NewWithSites(d *fragment.Distributed, sites []Site) *Cluster {
	return &Cluster{Net: NewNetwork(), Dict: d.Dict, Graph: d, Sites: sites}
}

// ParallelPool runs fn on every site through the given worker pool and
// returns the stage's wall-clock duration (stages are barriers). fn
// receives the site's index alongside the site; indexes equal site IDs
// for clusters built by New/NewWithSites. Concurrency is bounded by the
// pool's width, and a sequential pool (nil or width 1) visits sites
// strictly in site order — the property the -eval-workers=1 oracle
// relies on.
func (c *Cluster) ParallelPool(p *pool.Pool, fn func(i int, s Site)) time.Duration {
	start := time.Now()
	tasks := make([]func(), len(c.Sites))
	for i, s := range c.Sites {
		tasks[i] = func() { fn(i, s) }
	}
	p.Do(tasks...)
	return time.Since(start)
}
