package server

import (
	"context"
	"net/http"
	"net/url"
	"strings"
	"time"

	"gstored"
	"gstored/internal/engine"
	"gstored/internal/trace"
)

// ExplainReport is the JSON body answered by /sparql?explain=1 (and
// written to stderr by the one-shot `gstored -query`): the compiled
// query graph, the chosen execution plan, the result-table disposition
// the query would have met, and the full per-stage, per-fragment trace
// of one real execution — so diagnosing a query costs exactly one run,
// not a results run plus an instrumented rerun.
type ExplainReport struct {
	Query        string `json:"query"`
	CanonicalKey string `json:"canonical_key"`
	// Pattern is the compiled BGP rendered back to text — what the
	// engine actually matched after parsing, canonicalization aside.
	Pattern    string   `json:"pattern"`
	Vars       []string `json:"vars"`
	Projection []string `json:"projection"`
	Distinct   bool     `json:"distinct,omitempty"`
	Limit      *int     `json:"limit,omitempty"`
	Offset     int      `json:"offset,omitempty"`
	Mode       string   `json:"mode"`
	// Plan is the execution shape: "star-fast-path" (crossing-edge
	// replication makes every match fragment-local), "distributed"
	// (partial evaluation + assembly), or "components" (disconnected
	// pattern evaluated per component and cross-producted).
	Plan string `json:"plan"`
	// Order is the selectivity-compiled edge-evaluation order with the
	// per-edge cardinality estimate each position was chosen on (absent
	// for component-split plans, which order each component separately).
	Order []ExplainOrderStep `json:"order,omitempty"`
	// EvalWorkers is the resolved width of the bounded evaluation pool
	// this query ran under (1 = fully sequential).
	EvalWorkers int `json:"eval_workers"`
	// Delivery reports the serving mode: "ordered" (materialize + sort)
	// or "unordered" (first-row-early streaming).
	Delivery string       `json:"delivery"`
	Epoch    uint64       `json:"epoch"`
	Sites    int          `json:"sites"`
	Strategy string       `json:"strategy"`
	Cache    ExplainCache `json:"cache"`

	Rows          int     `json:"rows"`
	EarlyStop     bool    `json:"early_stop,omitempty"`
	TotalMillis   float64 `json:"total_ms"`
	ShipmentBytes int64   `json:"shipment_bytes"`
	Messages      int64   `json:"messages"`

	Stages    []ExplainStage    `json:"stages"`
	Fragments []ExplainFragment `json:"fragments"`
	// Trace is the span timeline of this execution: per-site candidates
	// and partial spans, coordinator LEC/assembly spans, and the
	// request-level parse span, ordered by start offset.
	Trace []trace.Span `json:"trace"`
}

// ExplainOrderStep is one position of the compiled evaluation order:
// the query edge evaluated there (rendered back to pattern text) and
// the global cardinality estimate that ranked it.
type ExplainOrderStep struct {
	Edge    int    `json:"edge"`
	Pattern string `json:"pattern"`
	Est     int64  `json:"est"`
}

// ExplainStage is one aggregate pipeline stage of the report.
type ExplainStage struct {
	Stage         string  `json:"stage"`
	Millis        float64 `json:"ms"`
	ShipmentBytes int64   `json:"shipment_bytes"`
	// Over RPC every stage's shipment_bytes is its calls' socket bytes
	// (the coordinator-side stages make none). Vars and FramingBytes
	// break the candidates stage (Full mode) down: one row per query
	// variable, and what the encodings spend outside the variables' sets.
	// In process they sum to shipment_bytes; over RPC the union's
	// bytes_down ride the partial-evaluation requests.
	Vars         []ExplainCandidateVar `json:"vars,omitempty"`
	FramingBytes int64                 `json:"framing_bytes,omitempty"`
}

// ExplainCandidateVar is one query variable's Section VI exchange: the
// form its union took ("list" is exact, "bits" the hashed vector,
// "dropped" not broadcast: the sites ran the variable unfiltered), the
// union's candidate count (list) or set bits (bits), the bindings the
// sites reported it would reject (Σκ, which decided the form), and the
// encoded bytes of the sites' sets and κ (up) and of the union to every
// site (down).
type ExplainCandidateVar struct {
	Var       string `json:"var"`
	Form      string `json:"form"`
	Count     int    `json:"count"`
	Rejects   int    `json:"rejects"`
	BytesUp   int64  `json:"bytes_up"`
	BytesDown int64  `json:"bytes_down"`
}

// ExplainFragment is one site's row of the per-fragment breakdown.
type ExplainFragment struct {
	Site                   int   `json:"site"`
	LocalMatches           int   `json:"local_matches"`
	PartialMatches         int   `json:"partial_matches"`
	RetainedPartialMatches int   `json:"retained_partial_matches"`
	ShipmentBytes          int64 `json:"shipment_bytes"`
	// WireBytes is the real transport traffic of the site's RPCs (request
	// and response frames measured at the socket); zero when the site is
	// in-process, where shipment_bytes is the §IX estimate instead.
	WireBytes  int64   `json:"wire_bytes"`
	WallMillis float64 `json:"wall_ms"`
	// Tasks and BusyMillis attribute pool work to the site: how many
	// evaluation tasks ran on its fragment and their summed wall time.
	// BusyMillis/WallMillis approximates the intra-site speedup the
	// worker pool delivered.
	Tasks      int     `json:"tasks"`
	BusyMillis float64 `json:"busy_ms"`
	// TransportMillis is what the site's partial-evaluation round trips
	// took beyond the worker's own evaluation (codec, socket, queueing);
	// zero when the site is in-process.
	TransportMillis float64 `json:"transport_ms"`
	// Semijoin is the site's stage-2 exchange as the §IX model priced it;
	// absent below LO, on the star path and on a worker-hosted site,
	// whose partial matches crossed the socket in stage 1.
	Semijoin *ExplainSemijoin `json:"semijoin,omitempty"`
}

// ExplainSemijoin is one site's semijoin decision (skipped, sampled or
// exchanged), the crossing-edge mappings it reported and the partial
// matches the exchange kept from shipping.
type ExplainSemijoin struct {
	Decision string `json:"decision"`
	Mappings int    `json:"mappings"`
	Killed   int    `json:"killed"`
}

// ExplainCache reports how the result table would have answered this
// query had it arrived without explain=1. The explain execution itself
// bypasses the table (it must run the engine to produce a trace) and
// leaves it untouched: no entry is stored, no LRU position refreshed, no
// hit/miss counted — a diagnostic probe must not evict the working set.
type ExplainCache struct {
	// Enabled is false when the table keeps nothing: CacheEntries < 0,
	// or Unordered, whose requests never reach it.
	Enabled bool `json:"enabled"`
	// Disposition is "hit" (a resident entry would have answered),
	// "miss", or "disabled".
	Disposition string `json:"disposition"`
	// Cacheable reports whether this execution's result fits under the
	// cache row cap (false means a real request would stream uncached).
	Cacheable bool `json:"cacheable"`
	// SharedFlight reports that a concurrent identical execution was in
	// flight at admission — a real request would have coalesced onto it.
	SharedFlight bool `json:"shared_flight"`
}

// BuildExplain assembles the report from one completed execution.
// Exported for the one-shot `gstored -query` command, which runs outside
// the HTTP layer.
func BuildExplain(db *gstored.DB, q *gstored.QueryGraph, text string, res *gstored.Result, tr *trace.Trace, delivery string, cache ExplainCache) *ExplainReport {
	s := res.Stats
	strategy, sites, epoch := db.ClusterInfo()
	plan := "distributed"
	if s.StarFastPath {
		plan = "star-fast-path"
	} else if len(q.ConnectedComponents()) > 1 {
		plan = "components"
	}
	rep := &ExplainReport{
		Query:         text,
		CanonicalKey:  db.CanonicalQueryKey(q),
		Pattern:       q.String(),
		Vars:          q.Vars,
		Projection:    db.Columns(q),
		Distinct:      q.Distinct,
		Offset:        q.Offset,
		Mode:          db.Mode().String(),
		Plan:          plan,
		Order:         explainOrder(q, s.Plan),
		EvalWorkers:   s.EvalWorkers,
		Delivery:      delivery,
		Epoch:         epoch,
		Sites:         sites,
		Strategy:      strategy,
		Cache:         cache,
		Rows:          s.NumMatches,
		EarlyStop:     s.EarlyStop,
		TotalMillis:   millis(s.TotalTime),
		ShipmentBytes: s.TotalShipment,
		Messages:      s.Messages,
		Stages:        explainStages(&s),
		Fragments:     explainFragments(s.Fragments),
		Trace:         tr.Spans(),
	}
	if q.HasLimit {
		l := q.Limit
		rep.Limit = &l
	}
	return rep
}

func explainOrder(q *gstored.QueryGraph, plan []gstored.PlanEdge) []ExplainOrderStep {
	if len(plan) == 0 {
		return nil
	}
	out := make([]ExplainOrderStep, len(plan))
	for k, pe := range plan {
		out[k] = ExplainOrderStep{Edge: pe.Edge, Pattern: q.EdgeString(pe.Edge), Est: pe.Est}
	}
	return out
}

func explainStages(s *gstored.Stats) []ExplainStage {
	out := make([]ExplainStage, len(s.Stages))
	for i, st := range s.Stages {
		out[i] = ExplainStage{Stage: engine.StageNames[i], Millis: millis(st.Time), ShipmentBytes: st.Shipment}
	}
	cand := &out[engine.StageCandidates]
	cand.FramingBytes = s.CandidateFraming
	for _, v := range s.CandidateVars {
		cand.Vars = append(cand.Vars, ExplainCandidateVar{
			Var: v.Var, Form: v.Form.String(), Count: v.Count, Rejects: v.Rejects, BytesUp: v.BytesUp, BytesDown: v.BytesDown,
		})
	}
	return out
}

func explainFragments(fs []gstored.FragmentStats) []ExplainFragment {
	out := make([]ExplainFragment, len(fs))
	for i, f := range fs {
		out[i] = ExplainFragment{
			Site:                   f.Site,
			LocalMatches:           f.LocalMatches,
			PartialMatches:         f.PartialMatches,
			RetainedPartialMatches: f.RetainedPartialMatches,
			ShipmentBytes:          f.ShipmentBytes,
			WireBytes:              f.WireBytes,
			WallMillis:             millis(f.Wall),
			Tasks:                  f.Tasks,
			BusyMillis:             millis(f.Busy),
			TransportMillis:        millis(f.Transport),
		}
		if f.Semijoin != engine.NoDecision {
			out[i].Semijoin = &ExplainSemijoin{Decision: f.Semijoin.String(), Mappings: f.SemijoinMappings, Killed: f.SemijoinKilled}
		}
	}
	return out
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// explainRequested reports whether the request opted into the EXPLAIN
// surface via ?explain=1 (GET or POST URL) or an explain=1 form field.
func explainRequested(r *http.Request, query url.Values) bool {
	v := query.Get("explain")
	if v == "" && r.PostForm != nil {
		v = r.PostForm.Get("explain")
	}
	switch strings.ToLower(v) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// explain answers /sparql?explain=1: one real engine execution with a
// trace attached, serialized as the ExplainReport instead of the
// bindings. The execution is admitted and clocked like any query (it
// holds a scheduler slot under the query timeout, counts as an engine
// run, and feeds the per-stage histograms) but leaves the result table
// untouched (see ExplainCache).
func (rq *request) explain() {
	s := rq.s
	resident, inFlight := s.results.peek(rq.epoch, rq.key)
	cache := ExplainCache{Enabled: s.results.capacity > 0, Disposition: "disabled", Cacheable: true, SharedFlight: inFlight}
	switch {
	case !cache.Enabled:
	case resident:
		cache.Disposition = "hit"
	default:
		cache.Disposition = "miss"
	}

	delivery := "ordered"
	if s.cfg.Unordered {
		delivery = "unordered"
	}
	res, err := rq.execute(rq.r.Context(), func(ctx context.Context) (*gstored.Result, error) {
		if s.cfg.Unordered {
			// Mirror the serving mode: the trace should show the same
			// execution shape (streaming sinks, LIMIT cancellation) a
			// real unordered request runs, with the rows discarded.
			return s.db.QueryGraphStreamContext(ctx, rq.q, func(gstored.Row) bool { return true })
		}
		return s.db.QueryGraphContext(ctx, rq.q)
	})
	if err != nil {
		rq.fail(err)
		return
	}
	if cache.Enabled {
		cache.Cacheable = s.cacheable(res)
	}

	s.writeJSON(rq.w, rq.r, BuildExplain(s.db, rq.q, rq.text, res, rq.tr, delivery, cache), "  ")
	rq.finish(outcomeExplain, &res.Stats, res.Stats.NumMatches)
}
