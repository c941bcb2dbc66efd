package server

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"gstored/internal/candidates"
	"gstored/internal/engine"
)

// Metrics aggregates serving-layer and engine counters. All fields are
// monotonic counters updated atomically; gauges are computed at scrape
// time. Rendered in the Prometheus text exposition format by Write.
type Metrics struct {
	Queries           atomic.Int64 // answered queries (cache hits included)
	Errors            atomic.Int64 // parse + execution failures (server faults only)
	ClientDisconnects atomic.Int64 // queries abandoned by their own client hanging up
	SlowLogDrops      atomic.Int64 // slow-query log lines lost to marshal or sink write failures
	Rejected          atomic.Int64 // admission-control 503s
	Timeouts          atomic.Int64 // per-query deadline expiries
	OverBudget        atomic.Int64 // queries failed by the engine's held-data budget (422)
	QueryNanos        atomic.Int64 // wall time spent answering (engine runs only)
	EngineRuns        atomic.Int64 // engine executions (misses that actually ran)
	Coalesced         atomic.Int64 // waiters served by a concurrent identical execution
	CacheBypass       atomic.Int64 // results too large for the cache row cap, streamed uncached
	EarlyStops        atomic.Int64 // unordered streaming executions cancelled once LIMIT was satisfied
	Repartitions      atomic.Int64 // successful online partition hot-swaps
	CacheFlushes      atomic.Int64 // whole result-cache flushes: epoch advances revalidation cannot cross
	Updates           atomic.Int64 // SPARQL Update requests applied successfully
	TriplesInserted   atomic.Int64 // triples added by updates (set semantics)
	TriplesDeleted    atomic.Int64 // triples removed by updates (set semantics)
	// CacheRevalidated counts the entries an update's revalidation kept
	// (re-stamped to the new epoch) and dropped; indexed by revalidation.
	CacheRevalidated [numRevalidations]atomic.Int64

	// Engine aggregates across executed (non-cached) queries, mirroring
	// the paper's Tables I–III columns; StageNanos is indexed by
	// engine.Stage.
	StageNanos     [engine.NumStages]atomic.Int64
	ShipmentBytes  atomic.Int64
	Messages       atomic.Int64 // inter-site messages (socket frames with worker-hosted sites)
	TransportNanos atomic.Int64 // remote round-trip time beyond the workers' own evaluation, summed over sites
	PartialMatches atomic.Int64
	LECFeatures    atomic.Int64 // LEC features the pruning stage joined
	PrunedMatches  atomic.Int64 // partial matches LEC pruning excluded from assembly
	JoinAttempts   atomic.Int64 // join steps of the closure walks
	Matches        atomic.Int64
	// CandidateVars counts the query variables whose candidate union was
	// broadcast, by the form it took; indexed by candidates.Form.
	CandidateVars [candidates.NumForms]atomic.Int64
	// SemijoinDecisions counts the sites' stage-2 exchanges by what the
	// §IX model decided; indexed by engine.Decision.
	SemijoinDecisions [engine.NumDecisions]atomic.Int64

	// QueryDurations are client-facing request latencies (parse through
	// last response byte) bucketed by how the request was answered; the
	// sum-only gstored_query_seconds_total hides the distribution these
	// expose.
	QueryDurations [numOutcomes]Histogram
	// StageDurations distribute per-stage engine wall time over executed
	// (non-cached) queries, one histogram per paper stage.
	StageDurations [engine.NumStages]Histogram
}

// queryOutcome labels a request latency observation with how the
// request was answered.
type queryOutcome int

const (
	outcomeHit       queryOutcome = iota // served from the result cache
	outcomeMiss                          // executed the engine (cache misses and bypasses)
	outcomeCoalesced                     // shared a concurrent identical execution
	outcomeStream                        // unordered first-row-early delivery
	outcomeExplain                       // ?explain=1 diagnostic execution
	outcomeError                         // failed: parse error, timeout, overload, fault
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"hit", "miss", "coalesced", "stream", "explain", "error"}

// revalidation labels what an update's revalidation did with one cache
// entry.
type revalidation int

const (
	revalidationKept    revalidation = iota // proved unchanged, re-stamped to the new epoch
	revalidationDropped                     // changed, unproven within budget, or stale
	numRevalidations
)

var revalidationNames = [numRevalidations]string{"kept", "dropped"}

// Observe folds one completed engine execution into the aggregates.
func (m *Metrics) Observe(s engine.Stats, wall time.Duration) {
	m.QueryNanos.Add(int64(wall))
	m.ShipmentBytes.Add(s.TotalShipment)
	m.Messages.Add(s.Messages)
	for _, f := range s.Fragments {
		m.TransportNanos.Add(int64(f.Transport))
		m.SemijoinDecisions[f.Semijoin].Add(1)
	}
	m.PartialMatches.Add(int64(s.NumPartialMatches))
	m.LECFeatures.Add(int64(s.NumLECFeatures))
	m.PrunedMatches.Add(int64(s.NumPartialMatches - s.NumRetainedPartialMatches))
	m.JoinAttempts.Add(int64(s.JoinAttempts))
	m.Matches.Add(int64(s.NumMatches))
	for _, v := range s.CandidateVars {
		m.CandidateVars[v.Form].Add(1)
	}
	for i, st := range s.Stages {
		m.StageNanos[i].Add(int64(st.Time))
		m.StageDurations[i].Observe(st.Time)
	}
}

func writeMetric(w io.Writer, name, help, typ string, value any) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %v\n", name, help, name, typ, name, value)
}

func seconds(nanos int64) float64 { return float64(nanos) / float64(time.Second) }

// Gauges carries the point-in-time values scraped alongside the
// counters: the cluster generation and its sites.
type Gauges struct {
	Epoch uint64 // current cluster generation (advances on repartition and data-changing update)
	Sites int    // current fragment/site count
	// SiteUp maps site ID → whether the site answered the scrape's health
	// probe (in-process sites always do; worker-hosted sites answer a
	// real RPC round trip).
	SiteUp map[int]bool
}

// Write renders the counters, the cache statistics, and the scheduler
// and cluster gauges in the Prometheus text exposition format.
func (m *Metrics) Write(w io.Writer, cache CacheStats, inFlight int64, uptime time.Duration, g Gauges) {
	writeMetric(w, "gstored_queries_total", "Queries answered, including cache hits.", "counter", m.Queries.Load())
	writeMetric(w, "gstored_query_errors_total", "Queries failed by parse or execution errors (client disconnects excluded).", "counter", m.Errors.Load())
	writeMetric(w, "gstored_client_disconnects_total", "Queries abandoned because their own client disconnected; not a server fault.", "counter", m.ClientDisconnects.Load())
	writeMetric(w, "gstored_slowlog_dropped_total", "Slow-query log lines dropped because the record marshal or sink write failed.", "counter", m.SlowLogDrops.Load())
	writeMetric(w, "gstored_queries_rejected_total", "Requests shed by admission control (HTTP 503), updates included.", "counter", m.Rejected.Load())
	writeMetric(w, "gstored_query_timeouts_total", "Requests canceled by the per-query deadline, updates included.", "counter", m.Timeouts.Load())
	writeMetric(w, "gstored_query_budget_exceeded_total", "Queries failed (HTTP 422) because they would hold more data than the engine's budget.", "counter", m.OverBudget.Load())
	writeMetric(w, "gstored_queries_inflight", "Admitted queries currently queued or running.", "gauge", inFlight)
	writeMetric(w, "gstored_query_seconds_total", "Wall time spent executing queries.", "counter", seconds(m.QueryNanos.Load()))
	writeMetric(w, "gstored_engine_executions_total", "Queries that actually ran the engine (cache misses and bypasses, singleflight leaders only).", "counter", m.EngineRuns.Load())
	writeMetric(w, "gstored_singleflight_waiters_total", "Queries coalesced onto a concurrent identical execution instead of running the engine.", "counter", m.Coalesced.Load())
	writeMetric(w, "gstored_early_terminations_total", "Unordered streaming executions whose remaining distributed work was cancelled once LIMIT+OFFSET rows were delivered.", "counter", m.EarlyStops.Load())

	writeMetric(w, "gstored_cache_hits_total", "Result-cache hits.", "counter", cache.Hits)
	writeMetric(w, "gstored_cache_misses_total", "Result-cache misses.", "counter", cache.Misses)
	writeMetric(w, "gstored_cache_evictions_total", "Result-cache LRU evictions.", "counter", cache.Evictions)
	writeMetric(w, "gstored_cache_bypass_total", "Results streamed uncached because they exceeded the cache row cap.", "counter", m.CacheBypass.Load())
	writeMetric(w, "gstored_cache_entries", "Result-cache resident entries.", "gauge", cache.Entries)
	writeMetric(w, "gstored_cache_flushes_total", "Result-cache flushes triggered by cluster epoch advances.", "counter", m.CacheFlushes.Load())
	fmt.Fprintf(w, "# HELP gstored_cache_revalidated_total Result-cache entries an update's exact delta test kept (re-stamped to the new epoch) or dropped.\n# TYPE gstored_cache_revalidated_total counter\n")
	for i, name := range revalidationNames {
		fmt.Fprintf(w, "gstored_cache_revalidated_total{outcome=%q} %d\n", name, m.CacheRevalidated[i].Load())
	}

	writeMetric(w, "gstored_query_memo_hits_total", "Repeated query texts answered from the request memo, without a parse.", "counter", cache.MemoHits)
	writeMetric(w, "gstored_repartitions_total", "Online partition hot-swaps applied.", "counter", m.Repartitions.Load())
	writeMetric(w, "gstored_updates_total", "SPARQL Update requests applied successfully (no-op updates included).", "counter", m.Updates.Load())
	writeMetric(w, "gstored_triples_inserted_total", "Triples added by updates (set semantics: already-present inserts count nothing).", "counter", m.TriplesInserted.Load())
	writeMetric(w, "gstored_triples_deleted_total", "Triples removed by updates (set semantics: absent deletes count nothing).", "counter", m.TriplesDeleted.Load())
	writeMetric(w, "gstored_partition_epoch", "Current cluster generation; advances on each repartition and each data-changing update.", "gauge", g.Epoch)
	writeMetric(w, "gstored_sites", "Current fragment/site count.", "gauge", g.Sites)
	if len(g.SiteUp) > 0 {
		fmt.Fprintf(w, "# HELP gstored_site_up Whether the site answered the scrape's health probe (worker-hosted sites answer a real RPC).\n# TYPE gstored_site_up gauge\n")
		ids := make([]int, 0, len(g.SiteUp))
		for id := range g.SiteUp {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			v := 0
			if g.SiteUp[id] {
				v = 1
			}
			fmt.Fprintf(w, "gstored_site_up{site=\"%d\"} %d\n", id, v)
		}
	}

	fmt.Fprintf(w, "# HELP gstored_stage_seconds_total Engine time per paper stage.\n# TYPE gstored_stage_seconds_total counter\n")
	for i, name := range engine.StageNames {
		fmt.Fprintf(w, "gstored_stage_seconds_total{stage=%q} %v\n", name, seconds(m.StageNanos[i].Load()))
	}
	writeMetric(w, "gstored_shipment_bytes_total", "Inter-site data shipment: bytes measured at the socket with worker-hosted sites, priced by the §IX model in-process.", "counter", m.ShipmentBytes.Load())
	writeMetric(w, "gstored_messages_total", "Inter-site messages (shipments and broadcasts): frames counted at the socket with worker-hosted sites, by the §IX model in-process.", "counter", m.Messages.Load())
	writeMetric(w, "gstored_remote_transport_seconds_total", "Partial-evaluation round-trip time beyond the workers' own evaluation (codec, socket, queueing), summed over sites; zero in-process.", "counter", seconds(m.TransportNanos.Load()))
	writeMetric(w, "gstored_partial_matches_total", "Local partial matches enumerated.", "counter", m.PartialMatches.Load())
	writeMetric(w, "gstored_lec_features_total", "LEC features joined by the pruning stage.", "counter", m.LECFeatures.Load())
	writeMetric(w, "gstored_partial_matches_pruned_total", "Local partial matches LEC pruning excluded from assembly.", "counter", m.PrunedMatches.Load())
	writeMetric(w, "gstored_join_attempts_total", "Join steps tried by the closure walks.", "counter", m.JoinAttempts.Load())
	writeMetric(w, "gstored_matches_total", "Result rows produced by the engine.", "counter", m.Matches.Load())
	fmt.Fprintf(w, "# HELP gstored_candidate_vars_total Query variables whose candidate union was broadcast, by its form (list is exact, bits the hashed vector).\n# TYPE gstored_candidate_vars_total counter\n")
	for i, name := range candidates.FormNames {
		fmt.Fprintf(w, "gstored_candidate_vars_total{form=%q} %d\n", name, m.CandidateVars[i].Load())
	}
	fmt.Fprintf(w, "# HELP gstored_semijoin_decisions_total Sites' stage-2 semijoin exchanges by the §IX model's decision (skipped: every match ships; sampled: the 1-in-16 sample only; exchanged: every mapping); worker-hosted sites decide none.\n# TYPE gstored_semijoin_decisions_total counter\n")
	for d := engine.Skipped; d < engine.NumDecisions; d++ {
		fmt.Fprintf(w, "gstored_semijoin_decisions_total{decision=%q} %d\n", engine.DecisionNames[d], m.SemijoinDecisions[d].Load())
	}

	queryHists := make([]labeledHistogram, numOutcomes)
	for i := range m.QueryDurations {
		queryHists[i] = labeledHistogram{label: outcomeNames[i], h: &m.QueryDurations[i]}
	}
	writeHistograms(w, "gstored_query_duration_seconds",
		"Client-facing request latency (parse through last response byte) by how the request was answered.",
		"outcome", queryHists)
	stageHists := make([]labeledHistogram, engine.NumStages)
	for i := range m.StageDurations {
		stageHists[i] = labeledHistogram{label: engine.StageNames[i], h: &m.StageDurations[i]}
	}
	writeHistograms(w, "gstored_stage_duration_seconds",
		"Engine wall time per paper stage per executed (non-cached) query.",
		"stage", stageHists)

	writeMetric(w, "gstored_uptime_seconds", "Seconds since the server started.", "gauge", uptime.Seconds())
}
