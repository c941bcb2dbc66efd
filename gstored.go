// Package gstored is a from-scratch Go implementation of the distributed
// SPARQL engine of Peng, Zou and Guan, "Accelerating Partial Evaluation in
// Distributed SPARQL Query Evaluation" (ICDE 2019): the partial evaluation
// and assembly framework of Peng et al. (VLDB J. 25(2), 2016) accelerated
// with LEC-feature pruning, LEC-feature assembly, and internal-candidate
// bit vectors, over a simulated multi-site cluster with byte-accurate
// data-shipment accounting.
//
// Quick start:
//
//	g := gstored.GenerateLUBM(4)
//	db, err := gstored.Open(g.Graph, gstored.Config{Sites: 12})
//	if err != nil { ... }
//	res, err := db.Query(`SELECT ?x WHERE { ?x <p> ?y }`)
//	for _, row := range db.Rows(res) { fmt.Println(row) }
//
// The package re-exports the pieces a downstream user needs — RDF terms
// and graphs, N-Triples I/O, partitioning strategies and their Section VII
// cost model, the four engine modes of the paper's ablation, and the
// paper's three benchmark workload generators — while the implementation
// lives in internal packages documented in DESIGN.md.
package gstored

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gstored/internal/cluster"
	"gstored/internal/engine"
	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/query"
	"gstored/internal/rdf"
	"gstored/internal/remote"
	"gstored/internal/sparql"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// Re-exported data-model types. See the rdf internal package for full
// documentation.
type (
	// Term is one RDF term (IRI, literal or blank node).
	Term = rdf.Term
	// TermID is a dictionary-encoded term; 0 (NoTerm) means unbound.
	TermID = rdf.TermID
	// Graph is a mutable triple collection with its dictionary.
	Graph = rdf.Graph
	// Dictionary maps terms to IDs and back.
	Dictionary = rdf.Dictionary
	// QueryGraph is a compiled SPARQL basic graph pattern.
	QueryGraph = query.Graph
	// Result is a completed query execution: rows plus per-stage stats.
	Result = engine.Result
	// Row is one result row, indexed by query variable.
	Row = engine.Row
	// Stats carries the per-stage metrics of the paper's Tables I-III.
	Stats = engine.Stats
	// FragmentStats is one site's row of Stats.Fragments: per-fragment
	// match counts, shipment attribution, and wall time.
	FragmentStats = engine.FragmentStats
	// PlanEdge is one step of the compiled selectivity-ordered
	// edge-evaluation plan reported in Stats.Plan.
	PlanEdge = engine.PlanEdge
	// Mode selects the optimization level (the Fig. 9 ablation).
	Mode = engine.Mode
	// Dataset is a generated benchmark workload (graph + queries).
	Dataset = workload.Dataset
	// BenchQuery is one benchmark query with its shape/selectivity class.
	BenchQuery = workload.BenchQuery
	// CostBreakdown carries the Section VII partitioning cost terms.
	CostBreakdown = partition.CostBreakdown
	// Assignment maps every graph vertex to its owning fragment.
	Assignment = partition.Assignment
)

// NoTerm is the unbound sentinel in rows and serialization vectors.
const NoTerm = rdf.NoTerm

// Engine modes, weakest to strongest (Section VIII-C ablation).
const (
	ModeBasic = engine.Basic // partial evaluation and assembly of [18]
	ModeLA    = engine.LA    // + LEC-feature-based assembly
	ModeLO    = engine.LO    // + LEC-feature-based pruning
	ModeFull  = engine.Full  // + internal-candidate sets
)

// ErrBudget fails a query that would hold more rows and partial matches
// at the coordinator than the engine's fixed budget allows: the query
// stops instead of exhausting memory.
var ErrBudget = engine.ErrBudget

// Term constructors.
var (
	// IRI returns an IRI term.
	IRI = rdf.NewIRI
	// Literal returns a plain literal term.
	Literal = rdf.NewLiteral
	// LangLiteral returns a language-tagged literal term.
	LangLiteral = rdf.NewLangLiteral
	// TypedLiteral returns a datatyped literal term.
	TypedLiteral = rdf.NewTypedLiteral
	// Blank returns a blank-node term.
	Blank = rdf.NewBlank
)

// NewGraph returns an empty graph with a fresh dictionary.
func NewGraph() *Graph { return rdf.NewGraph() }

// ReadNTriples parses an N-Triples document into a new graph.
func ReadNTriples(r io.Reader) (*Graph, error) { return rdf.ReadNTriples(r) }

// WriteNTriples serializes g in canonical N-Triples.
func WriteNTriples(w io.Writer, g *Graph) error { return rdf.WriteNTriples(w, g) }

// Config tunes Open.
type Config struct {
	// Sites is the number of fragments/sites (default 12, the paper's
	// cluster size).
	Sites int
	// Strategy picks the partitioning: "hash" (default), "semantic-hash",
	// "metis", or "best" (run all three and keep the smallest Section VII
	// cost).
	Strategy string
	// Mode is the engine optimization level; the zero value runs the full
	// system (ModeFull).
	Mode Mode
	// EvalWorkers bounds each query execution's evaluation worker pool
	// (0 = GOMAXPROCS; 1 = fully sequential evaluation).
	EvalWorkers int
	// Workers lists worker-process addresses (host:port, from `gstored
	// worker`). When non-empty the fragments are shipped to and hosted by
	// those processes, and the engine scatters over the RPC transport;
	// fragments map to workers round-robin by ID, so site counts above
	// len(Workers) are fine. Empty (the default) keeps every site
	// in-process — the fast single-node path. Worker-mode databases
	// should be Closed to release their connections.
	Workers []string
}

// DB is a distributed RDF database: a partitioned graph hosted on a
// simulated cluster, ready to answer SPARQL queries.
//
// The cluster state (fragments, engine) is immutable once built and
// swapped atomically by Repartition, so any number of goroutines may
// query the database while another repartitions it: every execution
// pins one consistent cluster for its whole run.
type DB struct {
	// Graph holds the dictionary the database shares with the graph
	// passed to Open; Graph.Dict is safe for concurrent use at all times.
	// Its triple list is empty: the database never writes the caller's
	// graph, and NumTriples counts the live data.
	Graph *Graph
	// Costs reports CostPartitioning per strategy evaluated at Open time.
	Costs map[string]CostBreakdown
	// StrategyName is the partitioning selected at Open time. It does not
	// follow Repartition; use Strategy for the partitioning live now.
	StrategyName string

	cfg Config

	// state is the hot-swappable cluster: fragments + engine + identity.
	// Loaded once per operation so concurrent queries see either the old
	// or the new cluster in full, never a mix. The indexed global store
	// travels inside the generation (dist.Global), so an Update's new
	// index and new fragments land in one swap.
	state atomic.Pointer[dbState]
	// swapMu serializes the writers of state — Repartition and Update;
	// queries never take it.
	swapMu sync.Mutex

	// workers is the RPC coordinator of a worker-mode database (nil
	// in-process). Sites hand out immutable per-epoch handles; the
	// coordinator owns the shared connection pools underneath them.
	workers *remote.Coordinator
}

// dbState is one immutable cluster generation.
type dbState struct {
	dist     *fragment.Distributed
	eng      *engine.Engine
	sites    []cluster.Site
	strategy string
	epoch    uint64
	// change is the Update that made this generation from the one before;
	// nil when Open or a Repartition made it.
	change *change
}

func (db *DB) load() *dbState { return db.state.Load() }

// change is one committed Update: the global stores before and after it
// and the net set-semantics delta between them. before shares every
// adjacency shard the delta did not touch with after, so keeping it until
// the next swap costs about the delta.
type change struct {
	before, after     *store.Store
	inserted, deleted []rdf.Triple
}

// unchanged is the Unchanged test of c. A match in after that is not in
// before must map a query edge onto an inserted triple, and a match lost
// must map one onto a deleted triple, so when neither kind exists the
// solution multisets are equal, and with them every answer DISTINCT,
// LIMIT and OFFSET derive from it.
func (c *change) unchanged(q *QueryGraph, deadline time.Time) bool {
	stopped := false
	stop := func() bool {
		stopped = stopped || !time.Now().Before(deadline)
		return stopped
	}
	return !c.after.Through(q, c.inserted, stop) && !c.before.Through(q, c.deleted, stop) && !stopped
}

// Strategies returns the three partitioning strategies of the paper.
func Strategies() []partition.Strategy {
	return []partition.Strategy{partition.Hash{}, partition.SemanticHash{}, partition.Metis{}}
}

func strategyByName(name string) (partition.Strategy, error) {
	switch strings.ToLower(name) {
	case "", "hash":
		return partition.Hash{}, nil
	case "semantic-hash", "semantic":
		return partition.SemanticHash{}, nil
	case "metis":
		return partition.Metis{}, nil
	default:
		return nil, fmt.Errorf("gstored: unknown partitioning strategy %q", name)
	}
}

// Open partitions g into cfg.Sites fragments with cfg.Strategy and builds
// the distributed engine over them.
func Open(g *Graph, cfg Config) (*DB, error) {
	if cfg.Sites == 0 {
		cfg.Sites = 12
	}
	if cfg.Sites < 0 {
		return nil, fmt.Errorf("gstored: invalid site count %d", cfg.Sites)
	}
	if cfg.Mode == engine.ModeUnset {
		cfg.Mode = ModeFull
	}
	st := store.FromGraph(g)
	db := &DB{Graph: &Graph{Dict: g.Dict}, cfg: cfg, Costs: map[string]CostBreakdown{}}

	var assign *partition.Assignment
	if strings.EqualFold(cfg.Strategy, "best") {
		best, costs, err := partition.SelectBest(st, cfg.Sites, Strategies()...)
		if err != nil {
			return nil, err
		}
		assign, db.Costs = best, costs
	} else {
		strat, err := strategyByName(cfg.Strategy)
		if err != nil {
			return nil, err
		}
		assign, err = strat.Partition(st, cfg.Sites)
		if err != nil {
			return nil, err
		}
		db.Costs[strat.Name()] = partition.Cost(st, assign)
	}
	db.StrategyName = assign.StrategyName

	dist, err := fragment.Build(st, assign)
	if err != nil {
		return nil, err
	}
	if len(cfg.Workers) > 0 {
		coord, err := remote.Connect(cfg.Workers...)
		if err != nil {
			return nil, err
		}
		db.workers = coord
	}
	// The initial ship is epoch 1's install with every fragment touched;
	// in-process the same path just builds the LocalSite handles.
	// Open takes no context, and the transport sets no deadline of its
	// own, so a worker that accepts but never answers stalls the ship.
	if err := db.publish(context.Background(), &dbState{}, dist, assign.StrategyName, nil, nil); err != nil {
		if db.workers != nil {
			_ = db.workers.Close() // already failing; connection cleanup is best-effort
		}
		return nil, err
	}
	return db, nil
}

// publish makes dist the generation after prev (the zero dbState before
// the first): the install at every site — of each fragment's share of the
// delta, or of every fragment in full when deltas is nil — an engine
// over the site handles it returns, then the one atomic store readers
// load. ch is the Update that made dist, nil for Open and Repartition. On
// error nothing is stored. Writers hold swapMu.
func (db *DB) publish(ctx context.Context, prev *dbState, dist *fragment.Distributed, strategy string, deltas []*fragment.Delta, ch *change) error {
	sites, err := db.swapGenerations(ctx, prev.sites, dist, prev.epoch+1, deltas)
	if err != nil {
		return err
	}
	db.state.Store(&dbState{dist: dist, eng: engine.NewWithSites(dist, sites), sites: sites, strategy: strategy, epoch: prev.epoch + 1, change: ch})
	return nil
}

// Close releases the worker connections of a worker-mode database; for a
// single-process database it is a no-op. Close does not stop the worker
// processes — they keep serving their fragments for the next
// coordinator.
func (db *DB) Close() error {
	if db.workers != nil {
		return db.workers.Close()
	}
	return nil
}

// newSite returns a fresh, empty Site handle for fragment id — an RPC
// client bound to a worker in worker mode, a LocalSite otherwise. The
// handle serves nothing until an install ships it a fragment.
func (db *DB) newSite(id int) cluster.Site {
	if db.workers != nil {
		return db.workers.NewSite(id)
	}
	return cluster.NewLocalSite(id, nil, 0)
}

// swapGenerations installs epoch at every site of the new generation,
// all sites at once: the fragment with its share of the delta where the
// delta touched it (deltas holds one share per fragment, nil where
// untouched; a nil deltas, or any change in site count, installs every
// fragment in full), otherwise the site's resident fragment carried
// forward from the previous handle's epoch. A site that cannot carry or
// patch (restarted, never shipped) answers cluster.ErrNeedSync and gets
// the full fragment; any other failure aborts the swap, reported for the
// first failing site in site order. Nothing is published until every
// site returned, so no query names the new epoch early, and an aborted
// swap leaves only generations above the live epoch, which the next
// install of that epoch overwrites.
func (db *DB) swapGenerations(ctx context.Context, prev []cluster.Site, dist *fragment.Distributed, epoch uint64, deltas []*fragment.Delta) ([]cluster.Site, error) {
	all := deltas == nil || len(prev) != len(dist.Fragments)
	next := make([]cluster.Site, len(dist.Fragments))
	errs := make([]error, len(dist.Fragments))
	var wg sync.WaitGroup
	for i, f := range dist.Fragments {
		s := db.newSite(i)
		if i < len(prev) {
			s = prev[i]
		}
		swap := cluster.GenerationSwap{Epoch: epoch, Fragment: f}
		if !all {
			if swap.Delta = deltas[i]; swap.Delta == nil {
				swap.Fragment = nil
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := s.SwapGeneration(ctx, swap)
			if (swap.Fragment == nil || swap.Delta != nil) && errors.Is(err, cluster.ErrNeedSync) {
				h, err = s.SwapGeneration(ctx, cluster.GenerationSwap{Epoch: epoch, Fragment: f})
			}
			next[i], errs[i] = h, err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("gstored: install epoch %d at site %d: %w", epoch, i, err)
		}
	}
	return next, nil
}

// SiteStatus is one site's row of SiteHealth.
type SiteStatus struct {
	// Site is the fragment/site ID.
	Site int
	// Addr is the worker address serving the site, or "in-process".
	Addr string
	// Epoch is the generation the site's handle serves.
	Epoch uint64
	// Fragments counts fragments resident at the serving process (a
	// worker hosting three fragments reports 3 on each of its rows).
	Fragments int
	// Up reports that the site answered the probe.
	Up bool
	// Error is the probe failure when Up is false.
	Error string
}

// SiteHealth probes every site of the live generation — a real RPC round
// trip per site in worker mode, so it doubles as a liveness heartbeat.
// In-process sites always answer. The sites are probed concurrently, so
// a stalled worker spends ctx's deadline on its own sites only.
func (db *DB) SiteHealth(ctx context.Context) []SiteStatus {
	s := db.load()
	out := make([]SiteStatus, len(s.sites))
	var wg sync.WaitGroup
	for i, site := range s.sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			info, err := site.Stats(ctx)
			out[i] = SiteStatus{Site: site.ID(), Addr: info.Addr, Epoch: info.Epoch, Fragments: info.Fragments, Up: err == nil}
			if err != nil {
				out[i].Error = err.Error()
			}
		}()
	}
	wg.Wait()
	return out
}

// Repartition rebuilds the cluster under assignment a and atomically
// swaps it in. The rebuild happens off to the side: queries keep running
// against the previous cluster and are never blocked; once the swap
// lands, new executions see the new fragments while in-flight ones
// finish on the old generation. Each successful swap advances Epoch —
// layers caching results derived from cluster state (e.g. the HTTP
// result cache) must key on or invalidate by epoch.
//
// The assignment must cover every vertex of the graph (it is validated
// before the swap, so a partial assignment can never route traffic);
// its K becomes the new site count.
func (db *DB) Repartition(a *Assignment) error {
	if a == nil {
		return fmt.Errorf("gstored: nil assignment")
	}
	db.swapMu.Lock()
	defer db.swapMu.Unlock()
	prev := db.load()
	// fragment.Build validates full coverage; an uncovered vertex fails
	// here, before anything swaps. An assignment planned before a
	// concurrent Update added vertices fails the same way — plan against
	// the store you intend to swap.
	dist, err := fragment.Build(prev.dist.Global, a)
	if err != nil {
		return err
	}
	name := a.StrategyName
	if name == "" {
		name = prev.strategy
	}
	// A repartition rebuilds every fragment, so the install ships them
	// all (nil deltas).
	return db.publish(context.Background(), prev, dist, name, nil, nil)
}

// UpdateStats reports what one committed Update changed.
type UpdateStats struct {
	// Inserted and Deleted count the triples actually added and removed
	// under RDF set semantics: inserting a triple already present and
	// deleting one already absent are no-ops and count nothing.
	Inserted int
	Deleted  int
	// RebuiltFragments is how many fragments the delta touched — only
	// their stores, vertex sets and crossing lists were rebuilt, and only
	// their shares of the delta travel to worker sites; every other
	// fragment is shared with the previous generation.
	RebuiltFragments int
	// Epoch is the generation serving the post-update data. A no-op
	// update reports the unchanged current epoch.
	Epoch uint64
}

// Update parses and applies a SPARQL 1.1 Update request restricted to
// the ground-data forms INSERT DATA { ... } / DELETE DATA { ... }
// (operations may be sequenced with ';'). The whole request commits as
// one atomic generation swap: a new immutable global index and the
// touched fragments are built off to the side (incremental maintenance
// of Definition 1 — untouched fragments are shared), then swapped in
// behind the same atomic pointer Repartition uses, with an epoch bump.
//
// Concurrent queries are never blocked and never see a half-applied
// write: executions in flight when the swap lands finish against the
// generation they pinned at start; executions starting after it see all
// of it. A result cached before the write may answer after it only when
// EpochChange's test proves the write left it unchanged; the HTTP
// serving layer re-stamps such entries to the new epoch and drops the
// rest.
//
// Updates and Repartitions serialize on one internal mutex; an update
// that changes nothing (all inserts present, all deletes absent) swaps
// nothing and keeps the current epoch, so caches stay warm.
//
// Cost: index work is proportional to the delta. The global store and
// each touched fragment copy only the adjacency shards, the runs of its
// per-predicate and vertex lists and, per fragment, the runs of its
// crossing list that the delta writes, and the pages of its V_i bitset
// whose bits change; everything else is shared with the previous
// generation, which stays immutable. A vertex's owner is the fragment
// whose V_i holds it; one that no fragment holds is placed by the Hash
// strategy's rule, so no per-vertex placement is kept or copied. What
// still grows with the data is each touched adjacency shard, rebuilt
// whole. In worker mode each touched site receives only its share of
// the delta and patches its resident fragment with the same
// Fragment.Apply, and the sites install concurrently. Batch updates for
// throughput.
func (db *DB) Update(ctx context.Context, updateText string) (UpdateStats, error) {
	u, err := sparql.ParseUpdate(updateText)
	if err != nil {
		return UpdateStats{}, err
	}
	db.swapMu.Lock()
	defer db.swapMu.Unlock()
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	cur := db.load()
	st := cur.dist.Global
	dict := db.Graph.Dict

	// Fold the operation sequence into one net set-semantics delta
	// against the live graph. Operations apply in order, so the last one
	// naming a triple decides whether it is present afterwards, and the
	// triple joins the delta only when that changes its presence: an
	// insert of an absent triple or a delete of a present one (an
	// insert-then-delete of an absent triple nets to nothing). The fold
	// works at the term level — keys are canonical term strings, which
	// are injective (Term.String doubles as the dictionary key) — and the
	// dictionary is consulted read-only via Lookup: a term it never saw
	// occurs in no stored triple. Only the inserts that survive the fold
	// Encode, so a request that nets to nothing (or fails) cannot grow
	// the shared dictionary.
	type lastOp struct {
		gt     sparql.GroundTriple
		delete bool
	}
	last := make(map[[3]string]lastOp)
	for _, op := range u.Ops {
		for _, gt := range op.Triples {
			last[[3]string{gt.S.String(), gt.P.String(), gt.O.String()}] = lastOp{gt, op.Delete}
		}
	}
	var inserted, deleted []rdf.Triple
	for _, l := range last {
		s, okS := dict.Lookup(l.gt.S)
		p, okP := dict.Lookup(l.gt.P)
		o, okO := dict.Lookup(l.gt.O)
		present := okS && okP && okO && st.HasTriple(s, p, o)
		switch {
		case l.delete && present:
			deleted = append(deleted, rdf.Triple{S: s, P: p, O: o})
		case !l.delete && !present:
			inserted = append(inserted, rdf.Triple{S: dict.Encode(l.gt.S), P: dict.Encode(l.gt.P), O: dict.Encode(l.gt.O)})
		}
	}
	if len(inserted) == 0 && len(deleted) == 0 {
		return UpdateStats{Epoch: cur.epoch}, nil
	}
	// Cancellation is cooperative at phase boundaries: checked here
	// before the index/fragment builds, and again before the commit
	// point, so an expired deadline aborts without swapping — the phases
	// themselves run to completion (they are memory-bound, not I/O).
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	// Deterministic application order (the fold is a map).
	sortTriples(inserted)
	sortTriples(deleted)

	newStore := st.Apply(inserted, deleted)
	newDist, deltas, err := cur.dist.Patch(newStore, inserted, deleted)
	if err != nil {
		return UpdateStats{}, err
	}
	// Last pre-commit check: a caller whose deadline has passed must get
	// its context error and an unchanged database, not a late commit.
	if err := ctx.Err(); err != nil {
		return UpdateStats{}, err
	}
	// Only the touched fragments' shares travel; every untouched site
	// re-tags its resident fragment under the new epoch.
	ch := &change{before: st, after: newStore, inserted: inserted, deleted: deleted}
	if err := db.publish(ctx, cur, newDist, cur.strategy, deltas, ch); err != nil {
		return UpdateStats{}, err
	}

	rebuilt := 0
	for _, share := range deltas {
		if share != nil {
			rebuilt++
		}
	}
	return UpdateStats{Inserted: len(inserted), Deleted: len(deleted), RebuiltFragments: rebuilt, Epoch: cur.epoch + 1}, nil
}

func sortTriples(ts []rdf.Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Less(ts[j]) })
}

// PlanPartition computes (without applying) an assignment of the
// database's graph under the named strategy into k fragments. Feed the
// result to Repartition, or inspect its cost first via PartitionCost.
//
// k may not exceed the live generation's vertex count: every fragment
// beyond |V| would be empty, and building and shipping K fragments
// allocates per fragment, so an unbounded k (POST /repartition takes it
// from the client) could exhaust memory.
func (db *DB) PlanPartition(strategyName string, k int) (*Assignment, error) {
	strat, err := strategyByName(strategyName)
	if err != nil {
		return nil, err
	}
	st := db.store()
	if k <= 0 || k > st.NumVertices() {
		return nil, fmt.Errorf("gstored: invalid site count %d (want 1 to %d, the vertex count)", k, st.NumVertices())
	}
	return strat.Partition(st, k)
}

// Epoch identifies the current cluster generation; Repartition and every
// data-changing Update advance it. Results computed under different
// epochs are not interchangeable unless EpochChange's test proves them
// equal: a cache must stamp each entry with its epoch and serve it only
// at that epoch.
func (db *DB) Epoch() uint64 { return db.load().epoch }

// Unchanged is the exact test of the Update that made an epoch: it
// reports whether q's solution multiset is the same before and after the
// Update. Each of its searches is anchored at the constants of q and of
// one changed triple; once a search runs past deadline it gives up and
// reports false.
type Unchanged func(q *QueryGraph, deadline time.Time) bool

// EpochChange returns the live epoch and, when an Update made that
// generation from the one before, that Update's Unchanged test; the test
// is nil when Open or a Repartition made it. Both come from one
// generation load, so the test always belongs to the epoch returned.
func (db *DB) EpochChange() (uint64, Unchanged) {
	s := db.load()
	if s.change == nil {
		return s.epoch, nil
	}
	return s.epoch, s.change.unchanged
}

// Strategy reports the partitioning live now: StrategyName at Open,
// then whatever Repartition last applied.
func (db *DB) Strategy() string { return db.load().strategy }

// ClusterInfo reports the live strategy, site count, and epoch as one
// consistent snapshot — a single generation load, so a swap landing
// between fields cannot tear the tuple the way separate
// Strategy/NumSites/Epoch calls can.
func (db *DB) ClusterInfo() (strategy string, sites int, epoch uint64) {
	s := db.load()
	return s.strategy, len(s.dist.Fragments), s.epoch
}

// Parse compiles SPARQL text against the database dictionary, assigning
// fresh dictionary IDs to constants the data has not seen.
func (db *DB) Parse(sparqlText string) (*QueryGraph, error) {
	return sparql.Parse(sparqlText, db.Graph.Dict)
}

// ParseReadOnly compiles SPARQL text without mutating the dictionary:
// constants absent from the data resolve to placeholder IDs that match
// nothing. Serving layers handling untrusted query streams should use
// this over Parse so clients cannot grow the shared dictionary.
func (db *DB) ParseReadOnly(sparqlText string) (*QueryGraph, error) {
	return sparql.ParseReadOnly(sparqlText, db.Graph.Dict)
}

// Query parses and executes SPARQL text under the configured mode — the
// text-level convenience over Parse + QueryGraphContext.
//
// DB is safe for concurrent use: any number of goroutines may issue
// queries against the same database simultaneously.
func (db *DB) Query(sparqlText string) (*Result, error) {
	q, err := db.Parse(sparqlText)
	if err != nil {
		return nil, err
	}
	return db.QueryGraphContext(context.Background(), q)
}

// QueryGraphContext executes a compiled query under the configured mode
// with cooperative cancellation: when ctx is canceled or its deadline
// passes, execution stops promptly and the context's error is returned.
func (db *DB) QueryGraphContext(ctx context.Context, q *QueryGraph) (*Result, error) {
	return db.QueryGraphModeContext(ctx, q, db.Mode())
}

// QueryGraphModeContext executes a compiled query under an explicit mode
// with cooperative cancellation.
func (db *DB) QueryGraphModeContext(ctx context.Context, q *QueryGraph, mode Mode) (*Result, error) {
	// One state load pins a consistent cluster generation for the whole
	// execution, even if Repartition swaps mid-flight.
	return db.load().eng.ExecuteContext(ctx, q, db.engineConfig(mode))
}

// QueryGraphStreamContext executes a compiled query in unordered
// first-row-early delivery mode: projected rows flow to emit as the
// engine produces them — no terminal canonical sort, no materialized row
// set — and once the query's LIMIT (after OFFSET, with DISTINCT dedup
// applied at the projection boundary) is satisfied, the remaining
// distributed work is cancelled (Result.Stats.EarlyStop). The row passed
// to emit is reused between calls; copy it to retain it. Returning false
// from emit stops the execution. The returned Result carries statistics
// only — Rows is nil — and row order varies between runs.
func (db *DB) QueryGraphStreamContext(ctx context.Context, q *QueryGraph, emit func(Row) bool) (*Result, error) {
	return db.load().eng.ExecuteStream(ctx, q, db.engineConfig(db.Mode()), emit)
}

// engineConfig is the engine configuration every query entry point runs
// under.
func (db *DB) engineConfig(mode Mode) engine.Config {
	return engine.Config{Mode: mode, EvalWorkers: db.cfg.EvalWorkers}
}

// Mode reports the engine mode queries run under: the configured mode,
// with the zero value resolved to ModeFull by Open.
func (db *DB) Mode() Mode { return db.cfg.Mode }

// CanonicalQueryKey returns a deterministic cache key identifying q up to
// variable renaming and triple reordering; see query.CanonicalKey. Keys
// are only comparable between queries parsed against this database.
func (db *DB) CanonicalQueryKey(q *QueryGraph) string {
	return query.CanonicalKey(q)
}

// Rows renders the projected rows of a result as decoded term strings.
func (db *DB) Rows(res *Result) [][]string {
	out := make([][]string, 0, res.Len())
	res.EachProjected(func(row Row) bool {
		cells := make([]string, len(row))
		for j, id := range row {
			if id == NoTerm {
				cells[j] = "NULL"
				continue
			}
			cells[j] = db.Graph.Dict.MustDecode(id).String()
		}
		out = append(out, cells)
		return true
	})
	return out
}

// Columns returns the projected variable names of a query, without the
// '?': the form of SPARQL JSON results' head.vars.
func (db *DB) Columns(q *QueryGraph) []string {
	idx := q.Projection
	if len(idx) == 0 {
		idx = make([]int, len(q.Vars))
		for i := range idx {
			idx[i] = i
		}
	}
	out := make([]string, len(idx))
	for i, v := range idx {
		out[i] = q.Vars[v]
	}
	return out
}

// NumSites reports the deployment's current site count (it changes when
// Repartition applies an assignment with a different K).
func (db *DB) NumSites() int { return len(db.load().dist.Fragments) }

// Distributed exposes the current cluster's fragments; intended for
// diagnostics and the experiment harness. The returned value is one
// immutable generation — it does not follow a later Repartition.
func (db *DB) Distributed() *fragment.Distributed { return db.load().dist }

// store returns the live generation's global index.
func (db *DB) store() *store.Store { return db.load().dist.Global }

// NumTriples reports the number of triples in the live generation —
// Open's data plus every committed Update. It is safe to call
// concurrently with updates.
func (db *DB) NumTriples() int { return db.store().Len() }

// PartitionCost evaluates the Section VII cost model for one strategy
// without building a database.
func PartitionCost(g *Graph, strategyName string, k int) (CostBreakdown, error) {
	strat, err := strategyByName(strategyName)
	if err != nil {
		return CostBreakdown{}, err
	}
	st := store.FromGraph(g)
	a, err := strat.Partition(st, k)
	if err != nil {
		return CostBreakdown{}, err
	}
	return partition.Cost(st, a), nil
}

// GenerateLUBM returns the LUBM-style dataset at the given university
// count (0 = default) with queries LQ1-LQ7.
func GenerateLUBM(universities int) *Dataset {
	return workload.NewLUBM(workload.LUBMConfig{Universities: universities})
}

// GenerateYAGO returns the YAGO2-style dataset at the given scale
// (0 = default) with queries YQ1-YQ4.
func GenerateYAGO(scale int) *Dataset {
	return workload.NewYAGO(workload.YAGOConfig{Scale: scale})
}

// GenerateBTC returns the BTC-style dataset at the given scale
// (0 = default) with queries BQ1-BQ7.
func GenerateBTC(scale int) *Dataset {
	return workload.NewBTC(workload.BTCConfig{Scale: scale})
}
