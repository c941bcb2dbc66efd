package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"gstored/internal/candidates"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// Site is the coordinator↔site boundary: the operations the engine
// scatters to every fragment host and the epoch install the generation
// machinery sends each of them. Two implementations exist — LocalSite
// evaluates in-process against a *fragment.Fragment (the default fast
// single-node path, and the oracle the equivalence tests pin), and
// remote.Site forwards each call over the RPC transport to a gstored
// worker process.
// Everything that crosses this boundary is serializable data: the engine
// may not hand a Site closures or shared mutable state, because a remote
// implementation cannot ship them.
type Site interface {
	// ID is the fragment/site identifier (fragment IDs and site IDs
	// coincide: one fragment per site, per the paper's deployment).
	ID() int

	// Candidates computes the site half of Algorithm 4: per variable,
	// the boundary internal candidates over this site's fragment and κ,
	// the crossing-edge bindings their union would reject elsewhere.
	Candidates(ctx context.Context, req CandidatesRequest) (CandidatesReply, error)

	// PartialEvalBatches runs the site-local evaluation stage: complete
	// local matches stream into emit in batches as they are found, and
	// the local partial matches come back in the reply. A batch and its
	// rows are valid only during the call; the producer reuses them, so
	// emit copies what it keeps. Emit may be called concurrently, one
	// batch per producer at a time; returning false stops this site's
	// production.
	PartialEvalBatches(ctx context.Context, req PartialRequest, emit func(rows [][]rdf.TermID) bool) (PartialReply, error)

	// PartialEval is PartialEvalBatches handing emit one row at a time,
	// each a copy the callee may keep, with the reply's Matches filled
	// (EachRow): the entry point the benchmark's layer drive calls.
	PartialEval(ctx context.Context, req PartialRequest, emit func(row []rdf.TermID) bool) (PartialReply, error)

	// Stats reports the site's identity and liveness for health surfaces.
	Stats(ctx context.Context) (SiteInfo, error)

	// SwapGeneration installs the site's generation for swap.Epoch and
	// returns the Site handle that serves it. The receiver's own epoch is
	// the base: a nil swap.Fragment carries the base generation's
	// fragment forward (the delta left it untouched), a non-nil one
	// replaces it, and a site holding the base may build it by applying
	// swap.Delta there instead. A site that does not hold the base
	// (restarted, never shipped, or a fresh handle at epoch 0) returns an
	// error wrapping ErrNeedSync, and the coordinator re-ships the full
	// fragment. Install is idempotent, and publishing the new epoch is the
	// coordinator's: no query names it before every site has installed it.
	SwapGeneration(ctx context.Context, swap GenerationSwap) (Site, error)
}

// ErrNeedSync reports that a site does not hold the generation a call
// names — the base of a carry-forward or delta install, or the epoch a
// query pinned — because it was restarted or never shipped it. The
// coordinator answers an install's need-sync by re-shipping the full
// fragment.
var ErrNeedSync = errors.New("cluster: site does not hold the generation")

// CandidatesRequest asks a site for its Section VI candidate sets.
type CandidatesRequest struct {
	Query *query.Graph
	// Bits is the length of the hashed form a set takes when its ID list
	// would encode larger.
	Bits int
}

// Meter is one site call's account, reported by the site with every
// reply, failed or not: what the call moved and the work it cost.
type Meter struct {
	// Wire and WireMessages report the real transport traffic of the
	// call; both zero for in-process sites, whose shipment the engine
	// estimates with the §IX cost model instead.
	Wire         int64
	WireMessages int64
	// Tasks and Busy attribute evaluation-pool work to the site: the
	// tasks the call split into and their summed wall time.
	Tasks int
	Busy  time.Duration
	// Eval is the evaluation's wall time on the clock of the process that
	// ran it, reported by sites that are reached over a transport: what
	// the caller's round trip took beyond it is the transport's share.
	// Zero in-process, where the caller's own clock already times it.
	Eval time.Duration
}

// CandidatesReply carries one site's candidate sets back.
type CandidatesReply struct {
	Vectors *candidates.SiteVectors
	Meter
}

// PartialRequest asks a site to run its local evaluation stage. Every
// field except Pool is serializable: a remote site reconstructs the
// vertex filters from its own fragment (center ownership, internal
// sets) rather than receiving closures.
type PartialRequest struct {
	Query *query.Graph
	// Star selects the Section VIII-B fast path: local matching only,
	// with query vertex Center restricted to internal vertices; no
	// partial evaluation runs and the reply carries no matches.
	Star   bool
	Center int
	// Order is the selectivity-ordered edge-evaluation order for local
	// matching; EdgeRank the per-edge rank partial evaluation expands by.
	Order    []int
	EdgeRank []int
	// Union is the broadcast candidate-set union (Full mode); the
	// site derives its extended-vertex filter from it, and runs a
	// variable whose slot is empty unfiltered. Nil below Full.
	Union *candidates.SiteVectors
	// Pool is the coordinator's per-execution evaluation pool. It cannot
	// cross the wire: in-process sites run their stages on it, remote
	// sites ignore it and size their own pool from the worker's
	// configuration.
	Pool *pool.Pool
}

// PartialReply is the gathered result of one site's PartialEval.
type PartialReply struct {
	// LocalMatches counts the complete local matches streamed into emit.
	LocalMatches int
	// Set holds the site's local partial matches (none on the star path),
	// and Matches, which only EachRow fills, the same as structs.
	Set     partial.Set
	Matches []*partial.Match
	Meter
}

// SiteInfo identifies a site for health reporting.
type SiteInfo struct {
	Site int
	// Addr is the worker address serving the site, or "in-process".
	Addr string
	// Epoch is the generation this site handle serves.
	Epoch uint64
	// Fragments counts the fragments resident at the serving process.
	Fragments int
}

// SwapPhase names the two calls of an earlier, two-phase broadcast. It
// survives only for callers that still spell them; both Site
// implementations ignore it, so a "commit" — an install of the
// handle's own epoch with no fragment — is a no-op.
type SwapPhase int

const (
	SwapPrepare SwapPhase = iota + 1
	SwapCommit
)

// GenerationSwap installs one site's generation for an epoch.
type GenerationSwap struct {
	// Phase is ignored (see SwapPhase).
	Phase SwapPhase
	Epoch uint64
	// Fragment is the site's fragment for Epoch; nil when the delta left
	// it untouched, and the site then carries the handle's generation
	// forward — only changed fragments travel.
	Fragment *fragment.Fragment
	// Delta, when set beside Fragment, is the fragment's share of the
	// update: a site holding the base may build Fragment by applying it
	// (fragment.Fragment.Apply) to its resident generation, so only the
	// share travels.
	Delta *fragment.Delta
}

// LocalSite hosts one fragment in-process: the default single-node
// deployment, and the behavioral oracle the remote implementation is
// pinned against. A LocalSite is immutable — SwapGeneration returns a
// fresh handle rather than mutating the receiver, so in-flight
// executions holding the old handle keep a consistent fragment view
// (the same property the DB's atomic generation pointer provides).
type LocalSite struct {
	id    int
	frag  *fragment.Fragment
	epoch uint64
}

// NewLocalSite returns an in-process site over f serving epoch.
func NewLocalSite(id int, f *fragment.Fragment, epoch uint64) *LocalSite {
	return &LocalSite{id: id, frag: f, epoch: epoch}
}

// LocalSites builds the in-process site set over d's fragments.
func LocalSites(d *fragment.Distributed, epoch uint64) []Site {
	sites := make([]Site, len(d.Fragments))
	for i, f := range d.Fragments {
		sites[i] = NewLocalSite(f.ID, f, epoch)
	}
	return sites
}

// ID implements Site.
func (s *LocalSite) ID() int { return s.id }

// Fragment exposes the hosted fragment for diagnostics and tests.
func (s *LocalSite) Fragment() *fragment.Fragment { return s.frag }

// Candidates implements Site: ComputeSite over the local fragment, one
// task timed by the site itself.
func (s *LocalSite) Candidates(ctx context.Context, req CandidatesRequest) (CandidatesReply, error) {
	if err := ctx.Err(); err != nil {
		return CandidatesReply{}, err
	}
	start := time.Now()
	vecs := candidates.ComputeSite(s.frag, req.Query, req.Bits)
	return CandidatesReply{Vectors: vecs, Meter: Meter{Tasks: 1, Busy: time.Since(start)}}, nil
}

// PartialEvalBatches implements Site: local matching (and, off the star
// path, partial evaluation) against the hosted fragment, with the vertex
// filters reconstructed from the fragment's internal set. Each seed
// chunk's matcher fills its own batch (store.Batcher).
func (s *LocalSite) PartialEvalBatches(ctx context.Context, req PartialRequest, emit func(rows [][]rdf.TermID) bool) (PartialReply, error) {
	frag := s.frag
	// Seed chunks emit concurrently when the pool splits the domain, so
	// the per-site counters accumulate atomically.
	var local, tasks, busy atomic.Int64
	onTask := func(d time.Duration) { tasks.Add(1); busy.Add(int64(d)) }
	cancel := CancelPoll(ctx)
	vf := func(qv int, u rdf.TermID) bool { return frag.IsInternal(u) }
	if req.Star {
		// Star fast path: only the center is confined to internal
		// vertices — crossing-edge replicas complete the star locally,
		// and center ownership deduplicates across sites (§VIII-B).
		center := req.Center
		vf = func(qv int, u rdf.TermID) bool {
			return qv != center || frag.IsInternal(u)
		}
	}
	frag.Store.MatchFunc(req.Query, store.MatchOptions{
		VertexFilter: vf,
		Cancel:       cancel,
		Order:        req.Order,
		Pool:         req.Pool,
		OnTask:       onTask,
	}, func(rows [][]rdf.TermID) bool {
		local.Add(int64(len(rows)))
		return emit(rows)
	})
	var set partial.Set
	var err error
	if !req.Star {
		var ef func(int, rdf.TermID) bool
		if req.Union != nil {
			ef = req.Union.Filter()
		}
		set, err = partial.ComputeSet(frag, req.Query, partial.Options{
			ExtendedFilter: ef,
			Cancel:         cancel,
			EdgeRank:       req.EdgeRank,
			Pool:           req.Pool,
			OnTask:         onTask,
		})
	}
	return PartialReply{
		LocalMatches: int(local.Load()),
		Set:          set,
		Meter:        Meter{Tasks: int(tasks.Load()), Busy: time.Duration(busy.Load())},
	}, err
}

// PartialEval implements Site.
func (s *LocalSite) PartialEval(ctx context.Context, req PartialRequest, emit func(row []rdf.TermID) bool) (PartialReply, error) {
	return EachRow(ctx, s, req, emit)
}

// EachRow runs s.PartialEvalBatches and hands emit each row of every
// batch, copied, and fills the reply's Matches from its Set: the one body
// of both implementations' PartialEval.
func EachRow(ctx context.Context, s Site, req PartialRequest, emit func(row []rdf.TermID) bool) (PartialReply, error) {
	rep, err := s.PartialEvalBatches(ctx, req, func(rows [][]rdf.TermID) bool {
		for _, row := range rows {
			if !emit(slices.Clone(row)) {
				return false
			}
		}
		return true
	})
	rep.Matches = rep.Set.Matches()
	return rep, err
}

// Stats implements Site.
func (s *LocalSite) Stats(ctx context.Context) (SiteInfo, error) {
	if err := ctx.Err(); err != nil {
		return SiteInfo{}, err
	}
	return SiteInfo{Site: s.id, Addr: "in-process", Epoch: s.epoch, Fragments: 1}, nil
}

// SwapGeneration implements Site. In-process, install is building the
// next immutable handle over the coordinator's own Fragment — the delta
// is already applied, so nothing is copied; publication is the caller's
// atomic generation store.
func (s *LocalSite) SwapGeneration(ctx context.Context, swap GenerationSwap) (Site, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := swap.Fragment
	if f == nil {
		if s.frag == nil {
			return nil, fmt.Errorf("%w: site %d has nothing to carry into epoch %d", ErrNeedSync, s.id, swap.Epoch)
		}
		f = s.frag // untouched by the delta: carry into the new epoch
	}
	return &LocalSite{id: s.id, frag: f, epoch: swap.Epoch}, nil
}
