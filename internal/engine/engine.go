// Package engine is gStoreD: the paper's partial-evaluation-and-assembly
// SPARQL engine over a simulated distributed RDF graph, with the four
// configurations of the Section VIII-C ablation:
//
//	Basic — the framework of Peng et al. [18]: partial evaluation at every
//	        site, all partial matches shipped, baseline join.
//	LA    — + LEC-feature-based assembly (Section V): same shipments,
//	        grouped and indexed join at the coordinator.
//	LO    — + LEC-feature-based pruning (Section IV): a site reports its
//	        crossing-edge mappings where the report pays — a 1-in-16 sample
//	        first, the rest only when the sample's kill rate says they
//	        pay, none when its matches cost no more — and ships only the
//	        partial matches the semijoin over them keeps; the LEC walk
//	        prunes further at the coordinator.
//	Full  — + assembling variables' internal candidates (Section VI):
//	        candidate sets filter extended bindings before partial
//	        evaluation.
//
// Star queries take the Section VIII-B fast path in every mode: each
// crossing edge is replicated, so star matches are complete within single
// fragments, and partial evaluation's site round stops after local
// matching.
package engine

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"gstored/internal/assembly"
	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/key"
	"gstored/internal/lec"
	"gstored/internal/partial"
	"gstored/internal/pool"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/store"
	"gstored/internal/trace"
)

// Mode selects the optimization level (the ablation of Fig. 9). The zero
// value resolves to Full, so a zero Config runs the complete system.
type Mode int

const (
	// ModeUnset resolves to Full at execution time.
	ModeUnset Mode = iota
	// Basic is gStoreD-Basic: no optimizations from this paper.
	Basic
	// LA adds LEC-feature-based assembly.
	LA
	// LO adds LEC-feature-based pruning on top of LA.
	LO
	// Full adds internal-candidate sets on top of LO.
	Full
)

func (m Mode) String() string {
	switch m {
	case ModeUnset, Full:
		return "gStoreD"
	case Basic:
		return "gStoreD-Basic"
	case LA:
		return "gStoreD-LA"
	case LO:
		return "gStoreD-LO"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config tunes an execution.
type Config struct {
	Mode Mode
	// EvalWorkers bounds the per-execution worker pool that evaluates
	// site stages and intra-fragment seed chunks (0 = GOMAXPROCS). 1
	// runs every stage sequentially in site order — the oracle the
	// equivalence tests compare parallel runs against.
	EvalWorkers int
}

// Row is one result row: bindings indexed by query variable.
type Row []rdf.TermID

// Stage is one column group of the paper's Tables I–III, in pipeline
// order. This is the only declaration of the stage list: Stats.Stages is
// indexed by it, and trace spans, /metrics, EXPLAIN and the slow log all
// iterate it, so a new stage is one constant and one name here.
type Stage int

const (
	StageCandidates Stage = iota
	StagePartial
	StageLEC
	StageAssembly
	NumStages
)

// StageNames are the stages' span and label names.
var StageNames = [NumStages]string{"candidates", "partial", "lec", "assembly"}

func (s Stage) String() string { return StageNames[s] }

// StageStat is one stage's row of the per-stage table.
type StageStat struct {
	Time     time.Duration
	Shipment int64
}

// Stats is the ledger of one execution: the per-stage columns of Tables
// I–III and the counters beside them. The stages add into it, so a
// disconnected query's components accumulate in the same ledger.
type Stats struct {
	Mode Mode
	// StarFastPath reports that a connected query took the §VIII-B star
	// path; false for component-split executions.
	StarFastPath bool

	// Stages is the per-stage table, indexed by Stage. In process a
	// stage's shipment is its §IX price: §VI's exchange for candidates,
	// the local complete matches' rows for partial evaluation. Over RPC
	// every stage's shipment is its calls' socket bytes, and the
	// coordinator-side stages ship nothing.
	Stages [NumStages]StageStat
	// CandidateVars is the candidates stage's exchange per query variable
	// and CandidateFraming what its encodings spend outside the sets; in
	// process they sum to that stage's shipment. Over RPC the union rides
	// the partial-evaluation requests.
	CandidateVars    []candidates.VarStat
	CandidateFraming int64

	// Partial evaluation (local partial matches), LEC-feature-based
	// pruning (Section IV) and LEC-feature-based assembly (Section V).
	NumPartialMatches         int
	NumLECFeatures            int
	NumRetainedPartialMatches int
	JoinAttempts              int
	NumCrossingMatches        int

	NumLocalMatches int
	NumMatches      int

	// EarlyStop reports that a streaming execution (ExecuteStream) was
	// cut short by its sink — LIMIT(+OFFSET) satisfied or the consumer
	// declined further rows — and the remaining distributed work was
	// cancelled rather than run to completion. Always false for the
	// ordered, materializing path.
	EarlyStop bool

	TotalTime time.Duration
	// InitShipment is the §IX price of sending the query graph to every
	// site; with the stage shipments it sums to TotalShipment.
	InitShipment  int64
	TotalShipment int64
	Messages      int64

	// Fragments attributes the distributed stages to individual sites,
	// so the slowest or chattiest site is identifiable (the aggregate
	// fields above sum across sites and hide stragglers). One row per
	// site, ordered by site ID.
	Fragments []FragmentStats

	// Plan is the compiled selectivity-ordered edge-evaluation order
	// with per-edge estimates against the global cardinality table; nil
	// for component-split executions, which plan per component.
	Plan []PlanEdge
	// EvalWorkers is the resolved width of the evaluation worker pool.
	EvalWorkers int
}

// PlanEdge is one step of the compiled edge-evaluation order; the
// planner lives with the cardinality table it reads (store.Plan).
type PlanEdge = store.PlanEdge

// FragmentStats is one site's share of an execution: what it matched,
// what it shipped, and how long its per-site stages ran.
type FragmentStats struct {
	// Site is the fragment/site ID.
	Site int
	// LocalMatches counts complete matches found within this fragment.
	LocalMatches int
	// PartialMatches counts the local partial matches this site's
	// partial evaluation enumerated (0 on the star fast path).
	PartialMatches int
	// RetainedPartialMatches counts this site's partial matches that
	// survived LEC pruning (equal to PartialMatches below ModeLO, where
	// nothing is pruned). The matches shipped for assembly are a superset.
	RetainedPartialMatches int
	// ShipmentBytes is the traffic this site sent to the coordinator.
	// For in-process sites it is the §IX cost-model estimate (candidate
	// vectors, local-match rows, crossing-edge mappings, shipped partial
	// matches; coordinator-side broadcasts are not attributed). For remote
	// sites it is the real wire traffic of the site's RPCs.
	ShipmentBytes int64
	// WireBytes is the real transport traffic of this site's RPCs —
	// request and response frames measured at the socket. Zero for
	// in-process sites, whose shipment is estimated, not transported.
	WireBytes int64
	// Wall is the site's wall-clock time across its per-site stages
	// (candidate computation, matching, partial evaluation). Sites run
	// concurrently, so these overlap rather than sum to the stage times.
	Wall time.Duration
	// Tasks counts the evaluation tasks this site's stages split into
	// on the worker pool (seed chunks plus one per whole-site stage;
	// exactly one per stage on a sequential pool).
	Tasks int
	// Busy sums the wall time of those tasks, each timed by the site that
	// ran it (the candidates task included). Tasks of one site run
	// concurrently on the pool, so Busy/Wall estimates the intra-site
	// parallel speedup the pool realized.
	Busy time.Duration
	// Transport is what the site's partial-evaluation round trips took
	// beyond the evaluation itself, as timed by the process that ran it:
	// encoding and decoding both ways, the socket, and the worker's
	// queueing. Zero for in-process sites, which have no transport.
	Transport time.Duration
	// Semijoin is what the site's stage-2 exchange did (see decide),
	// SemijoinMappings the crossing-edge mappings it reported and
	// SemijoinKilled its partial matches the exchange kept from shipping.
	// Only the §IX model decides: a remote site's matches crossed the
	// socket in stage 1, so it reports NoDecision. A disconnected query's
	// components add their mappings and kills, and the last one to decide
	// sets the decision.
	Semijoin         Decision
	SemijoinMappings int
	SemijoinKilled   int
}

// Decision is what one site's stage-2 semijoin exchange did.
type Decision int

const (
	// NoDecision: the site ran no stage 2 (Basic, LA, the star path, no
	// partial match, or a remote site).
	NoDecision Decision = iota
	// Skipped: the site reported nothing and shipped every match.
	Skipped
	// Sampled: it reported its sample's mappings and shipped the matches
	// the sample keeps.
	Sampled
	// Exchanged: it reported every mapping and shipped the live matches.
	Exchanged
	NumDecisions
)

// DecisionNames are the decisions' EXPLAIN and /metrics label names.
var DecisionNames = [NumDecisions]string{"none", "skipped", "sampled", "exchanged"}

func (d Decision) String() string { return DecisionNames[d] }

// Result is a completed query execution.
type Result struct {
	Query *query.Graph
	Rows  []Row
	Stats Stats
}

// Len reports the number of result rows.
func (r *Result) Len() int { return len(r.Rows) }

// EachProjected streams the rows restricted to the SELECT projection
// (all variables when the query used SELECT *) without materializing a
// projected copy of the result set. The row passed to yield is reused
// between calls — consumers that retain a row beyond the call must copy
// it. Iteration stops early when yield returns false.
func (r *Result) EachProjected(yield func(Row) bool) {
	buf := newProjectionBuffer(r.Query)
	for _, row := range r.Rows {
		if !yield(projectRow(r.Query, row, buf)) {
			return
		}
	}
}

// newProjectionBuffer sizes a reusable buffer for projectRow; nil when
// the query projects every variable (projectRow then returns rows as-is).
func newProjectionBuffer(q *query.Graph) Row {
	if len(q.Projection) == 0 {
		return nil
	}
	return make(Row, len(q.Projection))
}

// projectRow restricts row to q's SELECT projection, writing into buf
// (from newProjectionBuffer) and returning it; with an empty projection
// (SELECT *) the row itself is returned untouched.
func projectRow(q *query.Graph, row Row, buf Row) Row {
	if len(q.Projection) == 0 {
		return row
	}
	for j, v := range q.Projection {
		buf[j] = row[v]
	}
	return buf
}

// Engine evaluates SPARQL BGP queries over a simulated cluster. It is
// safe for concurrent use: every execution counts its traffic in its
// own Stats, fragments and stores are immutable after construction, and
// the shared dictionary is lock-protected.
type Engine struct {
	// sites serve the fragments, one per fragment, ordered by ID with IDs
	// matching the graph's fragment IDs: in-process LocalSites by
	// default, RPC clients in worker mode.
	sites []cluster.Site
	// graph is the distributed graph the sites host. The coordinator
	// keeps it in both modes: it plans against the global cardinality
	// table.
	graph *fragment.Distributed
	// budget is the bytes one execution may hold (see holding):
	// heldBudget, lowered only by tests.
	budget int64
}

// New builds an engine over a distributed graph served by in-process
// sites, one per fragment.
func New(d *fragment.Distributed) *Engine {
	return NewWithSites(d, cluster.LocalSites(d, 1))
}

// NewWithSites builds an engine over a distributed graph served by
// explicit Site implementations — the worker-mode entry point, where
// sites are RPC clients. Sites must be ordered by ID, one per fragment
// of d.
func NewWithSites(d *fragment.Distributed, sites []cluster.Site) *Engine {
	return &Engine{sites: sites, graph: d, budget: heldBudget}
}

// ErrBudget fails an execution that would hold more than its budget.
var ErrBudget = errors.New("engine: query holds more data than its budget")

// heldBudget caps what one execution holds at the coordinator: the
// ordered sink's collected rows, a disconnected query's component rows
// and intermediate products, and the partial matches stage 1 gathers.
// The largest holding measured, the 15.6 MB of the LUBM(1) four-way
// cross product of 168,885 rows, has 4.3x headroom under it.
const heldBudget = 64 << 20

// rowOverhead is what holding a row costs beyond its 4-byte TermID
// slots: the 24-byte slice header that indexes it and 8 bytes of
// allocation rounding. The features charge it per partial match too.
const rowOverhead = 32

// holding meters what one execution holds against the engine's budget.
// Charges only add: a holding is the sum of everything the execution
// collected, released or not. The charge that crosses the budget cancels
// ctx with ErrBudget as its cause, and every stage polls ctx, so local
// sites, remote sites and assembly all stop.
type holding struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	budget int64
	held   atomic.Int64
}

// hold derives an execution's context and its holding from ctx; the
// caller cancels it (h.cancel(nil)) once the execution is over.
func (e *Engine) hold(ctx context.Context) *holding {
	h := &holding{budget: e.budget}
	h.ctx, h.cancel = context.WithCancelCause(ctx)
	return h
}

// charge adds bytes held, and reports whether the holding is still
// within its budget.
func (h *holding) charge(bytes int) bool {
	if h.held.Add(int64(bytes)) <= h.budget {
		return true
	}
	h.cancel(ErrBudget)
	return false
}

// err is what an execution under h ends with, given run's err: ErrBudget
// once the budget canceled it, else the parent context's timeout or
// disconnect, which outranks the site error it caused, else err.
func (h *holding) err(parent context.Context, err error) error {
	if context.Cause(h.ctx) == ErrBudget {
		return ErrBudget
	}
	if perr := parent.Err(); err != nil && perr != nil {
		return perr
	}
	return err
}

// collector is a sink that keeps a copy of every row it is handed,
// charged to h: a batch is copied into one slab of its own outside the
// lock, and its rows are appended under it.
type collector struct {
	h    *holding
	mu   sync.Mutex
	rows []Row
}

func (c *collector) push(batch [][]rdf.TermID) bool {
	slots := 0
	for _, r := range batch {
		slots += len(r)
	}
	slab := make([]rdf.TermID, 0, slots)
	for _, r := range batch {
		slab = append(slab, r...)
	}
	c.mu.Lock()
	for _, r := range batch {
		n := len(r)
		c.rows = append(c.rows, Row(slab[:n:n]))
		slab = slab[n:]
	}
	c.mu.Unlock()
	return c.h.charge(rowOverhead*len(batch) + 4*slots)
}

// window is the ordered sink of a query with LIMIT: a max-heap, in
// canonical order, of the offset + limit canonically first rows, charged
// to h as it grows. Under DISTINCT it admits rows by projected key and
// keeps the canonically first full row of each of the offset + limit
// keys whose first rows come first. The canonical order is total, so
// replaying the window keeps exactly the rows replaying every row would.
// It copies a row it keeps: into a new row while it grows, and over the
// row it displaces once it is full.
type window struct {
	h    *holding
	q    *query.Graph
	max  int
	mu   sync.Mutex
	rows []Row
	keys []string       // under DISTINCT: rows[i]'s projected key
	at   map[string]int // under DISTINCT: key → index of its row
	buf  Row
	kb   []byte
}

func newWindow(h *holding, q *query.Graph) *window {
	w := &window{h: h, q: q, max: q.Offset + q.Limit, buf: newProjectionBuffer(q)}
	if w.max < q.Limit {
		w.max = math.MaxInt // the query's two counts overflowed
	}
	if q.Distinct {
		w.at = make(map[string]int)
	}
	return w
}

// push offers a batch under one lock and charges the rows it added.
func (w *window) push(batch [][]rdf.TermID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	added, slots := 0, 0
	for _, r := range batch {
		if w.add(r) {
			added++
			slots += len(r)
		}
	}
	return w.h.charge(rowOverhead*added + 4*slots)
}

// add offers one row and reports whether the window grew by it.
func (w *window) add(r Row) bool {
	if w.at != nil {
		w.kb = w.kb[:0]
		for _, id := range projectRow(w.q, r, w.buf) {
			w.kb = binary.LittleEndian.AppendUint32(w.kb, uint32(id))
		}
		if i, ok := w.at[string(w.kb)]; ok {
			if slices.Compare(r, w.rows[i]) < 0 {
				copy(w.rows[i], r)
				w.fix(i)
			}
			return false
		}
	}
	if len(w.rows) < w.max {
		w.rows = append(w.rows, slices.Clone(r))
		if w.at != nil {
			w.keys = append(w.keys, string(w.kb))
			w.at[w.keys[len(w.keys)-1]] = len(w.rows) - 1
		}
		w.fix(len(w.rows) - 1)
		return true
	}
	if len(w.rows) == 0 || slices.Compare(r, w.rows[0]) >= 0 {
		return false
	}
	// r displaces the window's last row.
	copy(w.rows[0], r)
	if w.at != nil {
		delete(w.at, w.keys[0])
		w.keys[0] = string(w.kb)
		w.at[w.keys[0]] = 0
	}
	w.fix(0)
	return false
}

// fix restores the heap order, the canonically last row on top, after
// rows[i] was placed.
func (w *window) fix(i int) {
	for i > 0 && w.after(i, (i-1)/2) {
		w.swap(i, (i-1)/2)
		i = (i - 1) / 2
	}
	for {
		c := 2*i + 1
		if c >= len(w.rows) {
			return
		}
		if c+1 < len(w.rows) && w.after(c+1, c) {
			c++
		}
		if !w.after(c, i) {
			return
		}
		w.swap(i, c)
		i = c
	}
}

func (w *window) after(i, j int) bool { return slices.Compare(w.rows[i], w.rows[j]) > 0 }

func (w *window) swap(i, j int) {
	w.rows[i], w.rows[j] = w.rows[j], w.rows[i]
	if w.at != nil {
		w.keys[i], w.keys[j] = w.keys[j], w.keys[i]
		w.at[w.keys[i]], w.at[w.keys[j]] = i, j
	}
}

// ExecuteContext runs q under cfg and returns all matches with per-stage
// statistics. Disconnected queries are evaluated per weakly connected
// component and recombined by cross product (Section II-A: "all connected
// components of Q are considered separately"). Cancellation is
// cooperative: when ctx is canceled or times out, the distributed stages
// stop promptly and the context's error is returned. An execution that
// would hold more than the engine's budget stops the same way and
// returns ErrBudget.
//
// Ordered delivery is a collecting sink over run: every row is
// materialized (sites emit concurrently), sorted canonically — numeric
// TermID order, slot by slot — and replayed in that order through the
// streaming sink, which applies the solution modifiers. Under LIMIT the
// sink is a window that holds only the rows the replay can keep.
// Deterministic output, no early termination.
func (e *Engine) ExecuteContext(ctx context.Context, q *query.Graph, cfg Config) (*Result, error) {
	start := time.Now()
	h := e.hold(ctx)
	defer h.cancel(nil)
	c := &collector{h: h}
	out, held := c.push, &c.rows
	if q.HasLimit {
		w := newWindow(h, q)
		out, held = w.push, &w.rows
	}
	stats, err := e.run(h, q, cfg, out)
	if err := h.err(ctx, err); err != nil {
		return nil, err
	}
	sortRows(*held)
	rows := replay(q, *held)
	stats.NumMatches = len(rows)
	stats.TotalTime = time.Since(start)
	return &Result{Query: q, Rows: rows, Stats: stats}, nil
}

// ExecuteStream runs q in unordered first-row-early delivery mode: every
// match flows to emit as it is produced — local matches and assembled
// crossing matches alike — with no terminal sort and no materialized row
// set; what the execution does hold is charged to the budget, as under
// ExecuteContext. Rows passed to emit are restricted to the SELECT
// projection and reuse one buffer between calls; consumers that retain a
// row must copy it. Solution modifiers apply at the projection boundary:
// DISTINCT deduplicates through a hash set (order-insensitive), OFFSET
// skips, and once LIMIT rows have been emitted the execution context is cancelled so
// remaining distributed stages stop (Stats.EarlyStop reports this). The
// returned Result carries statistics only — Rows is nil.
//
// Row order is whatever the execution produces; two runs of the same
// query may emit different orders (and, under OFFSET/LIMIT without
// DISTINCT covering the full answer, different row subsets — any such
// subset is a correct SPARQL answer for an unordered query).
func (e *Engine) ExecuteStream(ctx context.Context, q *query.Graph, cfg Config, emit func(Row) bool) (*Result, error) {
	start := time.Now()
	// The sink reads q's modifiers before run validates the rest.
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// The sink cancels the execution once it is satisfied; every
	// distributed stage polls it, so partial evaluation, assembly, and
	// sibling sites stop instead of completing work nobody will read.
	h := e.hold(ctx)
	defer h.cancel(nil)
	sink := newStreamSink(q, func(_, p Row) bool { return emit(p) }, func() { h.cancel(nil) })
	stats, err := e.run(h, q, cfg, sink.push)
	// The sink's own cancellation is the success path: once it has its
	// rows, errors raced in by still-draining stages are moot.
	if !sink.finished() {
		if err := h.err(ctx, err); err != nil {
			return nil, err
		}
	}
	stats.EarlyStop = sink.finished()
	stats.NumMatches = sink.emitted
	stats.TotalTime = time.Since(start)
	return &Result{Query: q, Stats: stats}, nil
}

// run is the one execution path: validation, the component split, the
// evaluation pool, the plan, the star-vs-distributed dispatch and the
// shipment totals. It runs under h's context and charges what it holds
// to h. Every match goes to out as it is produced; the two exported
// entry points differ only in the sink they pass (and stamp TotalTime,
// which for ordered delivery includes the sort). The returned Stats are
// meaningful on error too: a streaming sink that stopped the run reads
// them.
func (e *Engine) run(h *holding, q *query.Graph, cfg Config, out rowOut) (Stats, error) {
	ctx := h.ctx
	if err := validateForExec(q, &cfg); err != nil {
		return Stats{}, err
	}
	if err := ctx.Err(); err != nil {
		return Stats{Mode: cfg.Mode}, err
	}
	p := pool.New(cfg.EvalWorkers)
	stats := Stats{Mode: cfg.Mode, EvalWorkers: p.Workers(), Fragments: make([]FragmentStats, len(e.sites))}
	for i, s := range e.sites {
		stats.Fragments[i].Site = s.ID()
	}
	var ships []*shipCounts
	var err error
	if comps := query.SplitComponents(q); len(comps) > 1 {
		ships, err = e.runComponents(h, q, comps, cfg, p, &stats, out)
	} else {
		stats.Plan = e.graph.Global.Plan(q)
		var ship *shipCounts
		ship, err = e.component(h, q, stats.Plan, cfg, p, &stats, out)
		stats.StarFastPath = ship.star
		ships = []*shipCounts{ship}
	}
	// The one metering decision: round booked the traffic the site
	// replies measured at a socket as shipped; when nothing crossed one
	// (in-process sites report zero) the §IX model prices the same
	// exchange, one component at a time.
	if stats.TotalShipment == 0 {
		for _, ship := range ships {
			modelShipment(&stats, ship)
		}
	}
	return stats, err
}

// component evaluates one connected query graph, adding into stats, and
// returns what the §IX model prices for it: on error too, the counts
// recorded up to the failing stage. A star query takes the §VIII-B
// path: partial evaluation's site round with the center confined to
// internal vertices, where crossing-edge replicas make each star match
// complete within the fragment owning its center and center ownership
// deduplicates across sites, so the round's local matches are the
// answer. Every other query runs the two-stage partial evaluation
// and assembly flow. Local complete matches stream into out during
// partial evaluation and assembled crossing matches during assembly, so
// a streaming sink sees its first row before the run completes; the
// partial matches gathered for assembly are charged to h.
func (e *Engine) component(h *holding, q *query.Graph, plan []PlanEdge, cfg Config, p *pool.Pool, stats *Stats, out rowOut) (*shipCounts, error) {
	ctx := h.ctx
	ship := &shipCounts{q: q, local: make([]int, len(e.sites)), fs: &lec.Features{}}
	// The sites work out the star path and the expansion rank from the
	// query and the plan order themselves.
	req := cluster.PartialRequest{Query: q, Order: store.EdgeOrder(plan), Pool: p}
	_, ship.star = q.StarCenter()
	if !ship.star && cfg.Mode >= Full {
		// Stage 0 (Full only): assemble variables' internal candidates.
		vecs := make([]*candidates.SiteVectors, len(e.sites))
		if err := e.round(ctx, StageCandidates, p, stats, func(i int, s cluster.Site) (cluster.Meter, error) {
			rep, err := s.Candidates(ctx, cluster.CandidatesRequest{Query: q})
			vecs[i] = rep.Vectors
			return rep.Meter, err
		}); err != nil {
			return ship, err
		}
		union, err := candidates.Union(vecs, q, candidates.DefaultBits)
		if err != nil {
			return ship, err
		}
		vars, framing := candidates.Exchange(q, vecs, union)
		stats.CandidateVars = append(stats.CandidateVars, vars...)
		stats.CandidateFraming += framing
		// The union travels back to the sites inside each request.
		ship.vectors, ship.union, req.Union = vecs, union, union
	}

	// Stage 1: partial evaluation — local complete matches stream into out
	// as each site finds them, counted a batch at a time as they arrive,
	// and local partial matches come back in the replies. A sink that
	// stopped the run still reads what was matched up to that point, so
	// the counts stand before the error.
	reps := make([]cluster.PartialReply, len(e.sites))
	local := make([]atomic.Int64, len(e.sites))
	err := e.round(ctx, StagePartial, p, stats, func(i int, s cluster.Site) (cluster.Meter, error) {
		var err error
		reps[i], err = s.PartialEvalBatches(ctx, req, func(rows [][]rdf.TermID) bool {
			local[i].Add(int64(len(rows)))
			return out(rows)
		})
		return reps[i].Meter, err
	})
	// Site i's matches are set i, read where they arrived; they hold
	// their columns, 8 bytes a sign and 4 a slot.
	sets, held := make([]partial.Set, len(reps)), 0
	for i, rep := range reps {
		n := int(local[i].Load())
		ship.local[i], sets[i] = n, rep.Set
		stats.Fragments[i].LocalMatches += n
		stats.Fragments[i].PartialMatches += rep.Set.Len()
		stats.NumLocalMatches += n
		stats.NumPartialMatches += rep.Set.Len()
		held += 8*rep.Set.Len() + 4*(len(rep.Set.Vec)+len(rep.Set.EdgeVars))
	}
	if err != nil || ship.star {
		return ship, err
	}
	if !h.charge(held) {
		return ship, ErrBudget
	}
	return ship, assemble(h, q, cfg, sets, p, stats, ship, out)
}

// validateForExec is the admission check of run; it also resolves the
// zero Mode to Full.
func validateForExec(q *query.Graph, cfg *Config) error {
	if err := q.Validate(); err != nil {
		return err
	}
	if cfg.Mode == ModeUnset {
		cfg.Mode = Full
	}
	return nil
}

// rowOut receives produced result rows (full bindings, one slot per
// query variable) in batches, one per producer flush (store.Batcher),
// and reports whether production should continue. Implementations must
// be safe for concurrent use — sites emit in parallel — and take one
// lock and one budget charge per batch. A batch and its rows are valid
// only during the call: the producer reuses them, so a sink copies the
// rows it keeps.
type rowOut func(rows [][]rdf.TermID) bool

// streamSink is the one place the solution modifiers apply: full rows
// come in, and each survivor goes out to the consumer with its
// projection. DISTINCT keeps the first row per projected key (a set of
// projected rows, so unordered emission is fine), then OFFSET skips,
// then LIMIT stops the sink and cancels the execution context so
// remaining distributed work stops. Unordered delivery pushes rows from
// concurrently emitting producers; ordered delivery replays the sorted
// rows through it.
type streamSink struct {
	mu      sync.Mutex
	q       *query.Graph
	emit    func(full, projected Row) bool
	cancel  context.CancelFunc
	seen    key.Set[rdf.TermID] // projected rows seen, under DISTINCT
	skip    int                 // OFFSET rows still to drop
	buf     Row                 // reused projection buffer handed to emit
	emitted int
	done    bool
}

func newStreamSink(q *query.Graph, emit func(full, projected Row) bool, cancel context.CancelFunc) *streamSink {
	s := &streamSink{q: q, emit: emit, cancel: cancel, skip: q.Offset, buf: newProjectionBuffer(q)}
	if q.HasLimit && q.Limit == 0 {
		// LIMIT 0: satisfied before the first row; producers stop at once.
		s.stop()
	}
	return s
}

// replay applies q's solution modifiers to canonically sorted rows by
// pushing them through a streamSink in order, and returns the survivors
// in place. The sort makes the answer deterministic: DISTINCT keeps the
// canonically first full row per projected key, and the OFFSET/LIMIT
// window is the same on every run.
func replay(q *query.Graph, rows []Row) []Row {
	kept := rows[:0]
	s := newStreamSink(q, func(full, _ Row) bool {
		kept = append(kept, full)
		return true
	}, func() {})
	if q.Distinct && len(rows) > 0 {
		s.seen.Reserve(len(rows), len(rows)*len(projectRow(q, rows[0], s.buf)))
	}
	for _, r := range rows {
		if !s.add(r) {
			break
		}
	}
	return kept
}

// push accepts a batch of full rows under one lock; the return value
// tells the producer whether to keep going.
func (s *streamSink) push(rows [][]rdf.TermID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, row := range rows {
		if !s.add(row) {
			return false
		}
	}
	return true
}

// add accepts one full row. Callers hold s.mu, or have not shared s.
func (s *streamSink) add(row Row) bool {
	if s.done {
		return false
	}
	p := projectRow(s.q, row, s.buf)
	if s.q.Distinct {
		if _, added := s.seen.Add(p); !added {
			return true
		}
	}
	if s.skip > 0 {
		s.skip--
		return true
	}
	if !s.emit(row, p) {
		s.stop()
		return false
	}
	s.emitted++
	if s.q.HasLimit && s.emitted >= s.q.Limit {
		s.stop()
		return false
	}
	return true
}

// stop marks the sink satisfied and cancels the execution. Callers hold
// s.mu (or, from newStreamSink, have not yet shared the sink).
func (s *streamSink) stop() {
	s.done = true
	s.cancel()
}

// finished reports whether the sink stopped the run before the engine
// exhausted the search.
func (s *streamSink) finished() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done
}

// sortRows orders rows canonically: numeric TermID order, slot by slot.
func sortRows(rows []Row) { slices.SortFunc(rows, slices.Compare[Row]) }

// round is the one site barrier and the only code that books a site
// call: it runs call at every site on the pool, then adds each site's
// Meter and wall into stats — the stage's time and shipment, the site's
// span, wall, transport, tasks, busy time and wire bytes (which stand
// as its shipment), and the execution's traffic totals. A sequential pool (width 1) calls the
// sites strictly in site order, the property the -eval-workers=1 oracle
// relies on. Every call is booked, failed or not; the error returned is
// the context's, else the first failure in site order.
func (e *Engine) round(ctx context.Context, stage Stage, p *pool.Pool, stats *Stats, call func(i int, s cluster.Site) (cluster.Meter, error)) error {
	tr := trace.FromContext(ctx)
	type booking struct {
		meter cluster.Meter
		wall  time.Duration
		err   error
	}
	books := make([]booking, len(e.sites))
	tasks := make([]func(), len(e.sites))
	for i, s := range e.sites {
		tasks[i] = func() {
			start := time.Now()
			b := &books[i]
			b.meter, b.err = call(i, s)
			b.wall = time.Since(start)
			// For a remote site this span includes the wire round trip.
			tr.Span(stage.String(), s.ID(), start, b.wall)
		}
	}
	start := time.Now()
	p.Do(tasks...)
	st := &stats.Stages[stage]
	st.Time += time.Since(start)
	err := ctx.Err()
	for i, b := range books {
		f := &stats.Fragments[i]
		f.Wall += b.wall
		if b.meter.Eval > 0 {
			// What the round trip took beyond the site's own evaluation.
			f.Transport += max(b.wall-b.meter.Eval, 0)
		}
		f.Tasks += b.meter.Tasks
		f.Busy += b.meter.Busy
		f.WireBytes += b.meter.Wire
		f.ShipmentBytes += b.meter.Wire
		st.Shipment += b.meter.Wire
		stats.count(b.meter.Wire, b.meter.WireMessages)
		err = cmp.Or(err, b.err)
	}
	return err
}

// count adds shipped bytes and messages to the execution's totals.
func (s *Stats) count(bytes, messages int64) {
	s.TotalShipment += bytes
	s.Messages += messages
}

// assemble runs stages 2 and 3 over the partial matches stage 1
// gathered, site i's in sets[i]: LEC-feature pruning (LO, Full) and the
// assembly of crossing matches, which stream into out as the walk finds
// them, in batches per walk chunk. Every mode
// builds its features — lec.Group from LA up, lec.Singletons for Basic —
// charges what they hold to h, and runs one lec.Walk whose sink expands
// each complete combination. The assembly span books the walk with the
// expansion it drives, in every mode, and below LO the features it
// walks; the LEC span (LO, Full) books lec.Group and the retained and
// semijoin bookkeeping read off the finished walk.
func assemble(h *holding, q *query.Graph, cfg Config, sets []partial.Set, p *pool.Pool, stats *Stats, ship *shipCounts, out rowOut) error {
	ctx := h.ctx
	tr := trace.FromContext(ctx)
	opts := assembly.Options{Pool: p, Cancel: cluster.CancelPoll(ctx)}
	start := time.Now()
	var fs *lec.Features
	if cfg.Mode >= LA {
		fs = lec.Group(q, sets)
	} else {
		fs = lec.Singletons(q, sets)
	}
	// The features hold a row per match and, for every crossing edge of
	// the matches, the four key slots of its mapping (query edge, S, P, O).
	if !h.charge(rowOverhead*len(fs.FeatureOf) + 4*4*fs.Crossing) {
		return ErrBudget
	}
	var batches []*store.Batcher
	asmStart := start
	if cfg.Mode >= LO {
		asmStart = time.Now()
	}
	// The query's only closure walk. In LO and Full it is stage 2 too:
	// it derives the semijoin that decides which partial matches travel
	// and retains the ones that can complete, while stage 3 expands each
	// complete combination it finds. Over the RPC transport the partial
	// matches crossed the wire in stage 1, so there stage 2 ships nothing.
	x := assembly.NewExpansion(sets, fs, opts)
	walk := lec.Walk(fs, q, cfg.Mode == Basic, p, opts.Cancel, rowSinks(q, x, out, &batches))
	// Once out declines a batch, the other chunks' rows are dropped.
	declined := false
	for _, b := range batches {
		declined = declined || !b.Flush()
		b.Release()
	}
	asmStats := x.Stats(walk)
	asmTime := time.Since(asmStart)
	if cfg.Mode >= LO {
		stats.NumLECFeatures += fs.Len()
		ship.semijoin = walk.Semijoin
	}
	for fi := range fs.Len() {
		if cfg.Mode < LO || walk.Retained[fi] {
			n := len(fs.PMs(fi))
			stats.NumRetainedPartialMatches += n
			stats.Fragments[fs.Set(fi)].RetainedPartialMatches += n
		}
	}
	if cfg.Mode >= LO {
		lecTime := time.Since(start) - asmTime
		stats.Stages[StageLEC].Time += lecTime
		tr.Span(StageLEC.String(), trace.Coordinator, start, lecTime)
	}
	stats.Stages[StageAssembly].Time += asmTime
	tr.Span(StageAssembly.String(), trace.Coordinator, asmStart, asmTime)
	ship.fs = fs
	// A sink that stopped the assembly still reads the crossing matches
	// it was handed.
	stats.JoinAttempts += asmStats.JoinAttempts
	stats.NumCrossingMatches += asmStats.Results
	return ctx.Err()
}

// rowSinks is the walk's sink factory (lec.Walk's last argument) for an
// expansion whose crossing matches go to out as rows: each chunk writes
// its rows into a Batcher of its own, so no row is allocated, and the
// caller flushes and releases the batchers, listed in *batches, once the
// walk is over. The first row of every chunk leaves at once (a
// Batcher's threshold starts at one row), so a streaming sink can stop
// the assembly mid-join.
func rowSinks(q *query.Graph, x *assembly.Expansion, out rowOut, batches *[]*store.Batcher) func() lec.Sink {
	edgeVars := q.EdgeVars()
	return func() lec.Sink {
		b := store.NewBatcher(len(q.Vars), out)
		*batches = append(*batches, b)
		return x.SinkTo(func(cm assembly.Result) bool {
			row := b.Next()
			for i, v := range q.Vertices {
				if v.IsVar() {
					row[v.Var] = cm.Vec[i]
				}
			}
			for _, ev := range edgeVars {
				row[ev] = cm.EdgeVars[ev]
			}
			return b.Add()
		})
	}
}

// shipCounts are the quantities of one component's execution that the
// §IX shipment model prices; the stages record them as they run and
// modelShipment turns them into bytes once.
type shipCounts struct {
	q        *query.Graph              // the component's query
	star     bool                      // it took the star path
	local    []int                     // local complete matches per site
	vectors  []*candidates.SiteVectors // per-site candidate vectors (Full)
	union    *candidates.SiteVectors   // their union, broadcast back (Full)
	semijoin lec.Semijoin              // the walk's semijoin, per feature and per site (LO, Full)
	fs       *lec.Features             // the features walked, once stage 2's verdict stands; none before
}

// modelShipment is the §IX cost model of one in-process component: what
// the paper's deployment would have shipped for the exchange that just
// ran, added to the totals and attributed per stage and per fragment
// (coordinator-side broadcasts are not attributed to a fragment).
func modelShipment(stats *Stats, ship *shipCounts) {
	q := ship.q
	frags := stats.Fragments
	st := &stats.Stages
	k := int64(len(frags))
	// Initialization: every site receives the full query graph.
	init := int64(querySize(q)) * k
	stats.InitShipment += init
	stats.count(init, k)
	// Stage 0: one candidate-vector message per site, the union back to each.
	if ship.union != nil {
		cand := int64(ship.union.ShipmentBytes()) * k
		for i, v := range ship.vectors {
			b := int64(v.ShipmentBytes())
			frags[i].ShipmentBytes += b
			cand += b
		}
		st[StageCandidates].Shipment += cand
		stats.count(cand, 2*k)
	}
	// Stage 1: local matches to the coordinator — one reply per site on
	// the star path, one gathered message on the distributed path.
	var rows int64
	for i, n := range ship.local {
		b := int64(rowBytes(q) * n)
		frags[i].ShipmentBytes += b
		rows += b
	}
	st[StagePartial].Shipment += rows
	if ship.star {
		stats.count(rows, k)
	} else {
		stats.count(rows, 1)
	}
	// Stage 2 (LO, Full): each site with partial matches decides its
	// semijoin exchange (decide) from its counts, the price of all its
	// matches and what the sample predicts the rest of its mappings kill:
	// Σ over the matches the sample keeps of bytes × (1 − (1 − f)^u), f
	// the sample's dead share and u the match's unsampled mappings.
	// Every match of the component is priced alike: Check and the site's
	// enumerator pin its shape to the query.
	price := int64(partial.MatchBytes(q))
	sj := &ship.semijoin
	matchBytes := make([]int64, k)
	kill := make([]float64, k)
	// Set i of the features is site i's matches.
	for _, fi := range ship.fs.FeatureOf {
		i := ship.fs.Set(int(fi))
		matchBytes[i] += price
		if sj.Live == nil {
			continue
		}
		if !sj.SampleDead[fi] && sj.Sampled[i] > 0 {
			f := float64(sj.SampledDead[i]) / float64(sj.Sampled[i])
			kill[i] += float64(price) * (1 - math.Pow(1-f, float64(sj.Unsampled[fi])))
		}
	}
	decisions := make([]Decision, k)
	for i, n := range sj.Mappings {
		if matchBytes[i] == 0 {
			continue
		}
		d, rounds := decide(n, sj.Sampled[i], matchBytes[i], kill[i])
		decisions[i] = d
		frags[i].Semijoin = d
		for _, m := range rounds {
			if m == 0 {
				continue
			}
			up, down := reportBytes(m)
			frags[i].SemijoinMappings += m
			frags[i].ShipmentBytes += up
			st[StageLEC].Shipment += up + down
			stats.count(up+down, 2)
		}
	}
	// Stage 3: one message per partial match the site's exchange did not
	// kill — every match of a site that skipped it, the ones the sample
	// keeps of a site that stopped after it, the live ones of a site that
	// exchanged every mapping.
	var asm, shipped int64
	for _, fi := range ship.fs.FeatureOf {
		i := ship.fs.Set(int(fi))
		if d := decisions[i]; d == Sampled && sj.SampleDead[fi] || d == Exchanged && !sj.Live[fi] {
			frags[i].SemijoinKilled++
			continue
		}
		frags[i].ShipmentBytes += price
		asm += price
		shipped++
	}
	st[StageAssembly].Shipment += asm
	stats.count(asm, shipped)
}

// sampleFloor is the smallest sample whose dead share the semijoin rule
// trusts; a site with fewer sampled mappings exchanges all of them in one
// round.
const sampleFloor = 8

// decide is the semijoin rule of one site, stated once. The site holds n
// distinct mappings, ns of them in the sample, and matches worth all
// bytes; kill is the bytes it expects the mappings outside the sample to
// kill among the matches the sample keeps. Reporting m mappings costs
// reportBytes(m).
//   - Skipped: reporting all n costs at least all its matches, so it
//     reports nothing and ships every match.
//   - Exchanged in one round: its sample is under sampleFloor; it
//     reports all n and ships the live matches.
//   - Sampled: it reports the ns sampled mappings, whose verdict is exact
//     (both sides of a crossing edge sample it alike), and stops there
//     unless kill exceeds what reporting the other n − ns costs.
//   - Exchanged in two rounds: it reports those too and ships the live
//     matches.
//
// It returns the decision and the mappings each round reports; a round
// is a report up and a bitmap down. A bitmap is computed from the reports
// plus the matches already shipped, so the rounds run in order: skipped
// sites ship their matches before any sample bitmap is computed, and
// sampled sites ship theirs before any full bitmap is. Then every holder
// of a sampled mapping has been heard from, which makes the sample's
// verdict exact; a full bitmap may kill more than the Live verdict
// priced here, but only matches in no complete combination (DESIGN.md,
// "One metering decision").
func decide(n, ns int, all int64, kill float64) (d Decision, rounds [2]int) {
	if up, down := reportBytes(n); up+down >= all {
		return Skipped, rounds
	}
	if ns < sampleFloor {
		return Exchanged, [2]int{n, 0}
	}
	if up, down := reportBytes(n - ns); kill <= float64(up+down) {
		return Sampled, [2]int{ns, 0}
	}
	return Exchanged, [2]int{ns, n - ns}
}

// reportBytes prices a report of m crossing-edge mappings: 16 bytes each
// up, one bit each in the dead-mapping bitmap back.
func reportBytes(m int) (up, down int64) { return int64(16 * m), int64((m + 7) / 8) }

// runComponents evaluates each weakly connected component separately,
// through the same per-component path and into the same Stats, and
// recombines rows by cross product, enforcing equality on edge-label
// variables shared between components (vertex variables cannot be shared
// — a shared vertex would connect the components).
//
// Every product is merged straight into a Batcher's rows, so a pair
// that fails costs no allocation. The final component's cross product
// streams: its batches go to out as they fill (component rows — and, for
// three or more components, the intermediate pairwise products — still
// materialize in collectors, charged to h; only the last merge, which
// can dwarf them all, never does), and production stops the moment out
// declines a batch. Component
// sub-queries carry no solution modifiers (SplitComponents drops them
// with the projection), so modifiers apply exactly once, in the caller's
// sink. It returns what the §IX model prices for each component run.
func (e *Engine) runComponents(h *holding, q *query.Graph, comps []query.Component, cfg Config, p *pool.Pool, stats *Stats, out rowOut) ([]*shipCounts, error) {
	ctx := h.ctx
	combined := []Row{make(Row, len(q.Vars))}
	var ships []*shipCounts
	for ci, comp := range comps {
		c := &collector{h: h}
		ship, err := e.component(h, comp.Query, e.graph.Global.Plan(comp.Query), cfg, p, stats, c.push)
		ships = append(ships, ship)
		if err != nil {
			return ships, err
		}

		// The last product's batches go to out, the others' are collected
		// as the next product. A declined batch is out stopping the run,
		// or else the budget.
		last := ci == len(comps)-1
		next := &collector{h: h}
		sink := next.push
		if last {
			sink = out
		}
		declined := func() ([]*shipCounts, error) {
			if last {
				return ships, nil
			}
			return ships, ErrBudget
		}
		b := store.NewBatcher(len(q.Vars), sink)
		defer b.Release()
		var ops uint
		for _, base := range combined {
			for _, sub := range c.rows {
				// The cross product can dwarf the component runs; poll the
				// context so timeouts still bite here.
				if ops&0xfff == 0 {
					if err := ctx.Err(); err != nil {
						return ships, err
					}
				}
				ops++
				merged := b.Next()
				copy(merged, base)
				ok := true
				for subVar, parentVar := range comp.VarMap {
					v := sub[subVar]
					if cur := merged[parentVar]; cur != rdf.NoTerm && v != rdf.NoTerm && cur != v {
						ok = false // shared edge-label variable disagrees
						break
					}
					if v != rdf.NoTerm {
						merged[parentVar] = v
					}
				}
				if ok && !b.Add() {
					return declined()
				}
			}
		}
		if !b.Flush() {
			return declined()
		}
		combined = next.rows
		if len(combined) == 0 {
			break
		}
	}
	return ships, nil
}

// querySize estimates the broadcast size of a query graph.
func querySize(q *query.Graph) int {
	return 8*len(q.Vertices) + 16*len(q.Edges)
}

// rowBytes estimates the wire size of one result row.
func rowBytes(q *query.Graph) int { return 4 * (len(q.Vars) + 1) }
