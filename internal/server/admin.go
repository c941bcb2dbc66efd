package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"gstored"
)

// The admin surface of the advisor loop:
//
//	GET  /advisor      evaluate the live workload against (strategy, k)
//	                   candidates and report a recommendation + cost table
//	POST /repartition  apply a partitioning online — either an explicit
//	                   {"strategy": ..., "k": ...} body or, with an empty
//	                   body, the advisor's current recommendation
//
// Both are JSON in/out and deliberately unauthenticated, like /metrics:
// the server is an internal component; put it behind your proxy.

// advisorCost is the JSON rendering of one cost evaluation.
type advisorCost struct {
	Cost             float64 `json:"cost"`
	EV               float64 `json:"ev"`
	MaxFragmentEdges int     `json:"max_fragment_edges"`
	Crossing         int     `json:"crossing_edges"`
	WeightedCrossing float64 `json:"weighted_crossing"`
}

func costJSON(c gstored.CostBreakdown) advisorCost {
	return advisorCost{
		Cost:             c.Cost,
		EV:               c.EV,
		MaxFragmentEdges: c.MaxFragmentEdges,
		Crossing:         c.NumCrossing,
		WeightedCrossing: c.WeightedCrossing,
	}
}

// advisorCandidate is one (strategy, k) row of the /advisor cost table.
type advisorCandidate struct {
	Strategy     string      `json:"strategy"`
	K            int         `json:"k"`
	DataCost     advisorCost `json:"data_cost"`
	WorkloadCost advisorCost `json:"workload_cost"`
}

// advisorResponse is the /advisor payload.
type advisorResponse struct {
	// Current identifies the partitioning serving traffic now.
	Current struct {
		Strategy string `json:"strategy"`
		K        int    `json:"k"`
		Epoch    uint64 `json:"epoch"`
	} `json:"current"`
	// Workload summarizes the query log the recommendation is based on.
	Workload struct {
		Queries         uint64 `json:"queries"`
		Distinct        int    `json:"distinct"`
		Evicted         uint64 `json:"evicted"`
		PartialMatches  uint64 `json:"partial_matches"`
		CrossingMatches uint64 `json:"crossing_matches"`
		ShipmentBytes   int64  `json:"shipment_bytes"`
	} `json:"workload"`
	// Recommended minimizes the workload-weighted Section VII cost.
	Recommended struct {
		Strategy string `json:"strategy"`
		K        int    `json:"k"`
	} `json:"recommended"`
	// DataOnly is what the unweighted Section VII model would pick over
	// the same candidates; when it differs from Recommended, the
	// workload changed the verdict.
	DataOnly struct {
		Strategy string `json:"strategy"`
		K        int    `json:"k"`
	} `json:"data_only"`
	DiffersFromDataOnly bool               `json:"differs_from_data_only"`
	Candidates          []advisorCandidate `json:"candidates"`
}

// advisorKs resolves the candidate site counts: an explicit ?k=4,8,12
// wins, then Config.AdvisorKs, then the current site count.
func (s *Server) advisorKs(r *http.Request) ([]int, error) {
	if raw := r.URL.Query().Get("k"); raw != "" {
		var ks []int
		for _, part := range strings.Split(raw, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || k <= 0 {
				return nil, fmt.Errorf("invalid k %q (want positive integers, comma-separated)", part)
			}
			ks = append(ks, k)
		}
		return ks, nil
	}
	if len(s.cfg.AdvisorKs) > 0 {
		return s.cfg.AdvisorKs, nil
	}
	return []int{s.db.NumSites()}, nil
}

// advise runs the advisor over the live query log.
func (s *Server) advise(ks []int) (*gstored.Recommendation, gstored.QueryLogSnapshot, error) {
	var snap gstored.QueryLogSnapshot
	if s.qlog != nil {
		snap = s.qlog.Snapshot()
	}
	s.metrics.AdvisorRuns.Add(1)
	rec, err := s.db.Advise(snap.Workload(0), ks...)
	return rec, snap, err
}

func (s *Server) handleAdvisor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", "GET")
		http.Error(w, "use GET", http.StatusMethodNotAllowed)
		return
	}
	ks, err := s.advisorKs(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rec, snap, err := s.advise(ks)
	if err != nil {
		s.fail(w, "advisor", err)
		return
	}
	var resp advisorResponse
	resp.Current.Strategy, resp.Current.K, resp.Current.Epoch = s.db.ClusterInfo()
	resp.Workload.Queries = snap.Queries
	resp.Workload.Distinct = snap.Distinct
	resp.Workload.Evicted = snap.Evicted
	resp.Workload.PartialMatches = snap.PartialMatches
	resp.Workload.CrossingMatches = snap.CrossingMatches
	resp.Workload.ShipmentBytes = snap.ShipmentBytes
	resp.Recommended.Strategy = rec.Strategy
	resp.Recommended.K = rec.K
	resp.DataOnly.Strategy = rec.DataStrategy
	resp.DataOnly.K = rec.DataK
	resp.DiffersFromDataOnly = rec.Differs()
	for _, c := range rec.Candidates {
		resp.Candidates = append(resp.Candidates, advisorCandidate{
			Strategy:     c.Strategy,
			K:            c.K,
			DataCost:     costJSON(c.DataCost),
			WorkloadCost: costJSON(c.WorkloadCost),
		})
	}
	s.writeJSON(w, r, resp, "")
}

// repartitionRequest is the optional POST /repartition body. An empty
// body applies the advisor's current recommendation.
type repartitionRequest struct {
	Strategy string `json:"strategy"`
	K        int    `json:"k"`
}

func (s *Server) handleRepartition(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<16))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	var req repartitionRequest
	if len(strings.TrimSpace(string(body))) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, fmt.Sprintf("malformed body: %v (want {\"strategy\": ..., \"k\": ...} or empty)", err), http.StatusBadRequest)
			return
		}
	}

	var assign *gstored.Assignment
	switch {
	case req.Strategy == "" && req.K == 0:
		// Advisor-driven: apply the recommendation for the configured ks.
		ks, kerr := s.advisorKs(r)
		if kerr != nil {
			http.Error(w, kerr.Error(), http.StatusBadRequest)
			return
		}
		rec, _, aerr := s.advise(ks)
		if aerr != nil {
			s.fail(w, "advisor", aerr)
			return
		}
		assign = rec.Assignment
	case req.Strategy != "" && req.K > 0:
		assign, err = s.db.PlanPartition(req.Strategy, req.K)
		if err != nil {
			http.Error(w, fmt.Sprintf("planning partition: %v", err), http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, "provide both strategy and k, or neither (advisor-driven)", http.StatusBadRequest)
		return
	}

	if err := s.db.Repartition(assign); err != nil {
		s.fail(w, "repartition", err)
		return
	}
	s.metrics.Repartitions.Add(1)
	// Sync the cache to the new epoch immediately: queries would do it
	// lazily on their next arrival, but flushing here frees the dead
	// generation's entries right away and makes the flush observable to
	// the caller via gstored_cache_flushes_total.
	s.syncEpoch()
	// One consistent snapshot: a racing swap must not tear the tuple
	// (though it may report the racer's generation rather than ours).
	strategy, k, epoch := s.db.ClusterInfo()
	s.writeJSON(w, r, map[string]any{
		"applied": map[string]any{
			"strategy": strategy,
			"k":        k,
		},
		"epoch": epoch,
	}, "")
}
