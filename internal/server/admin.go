package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// repartitionRequest is the POST /repartition body.
type repartitionRequest struct {
	Strategy string `json:"strategy"`
	K        int    `json:"k"`
}

// handleRepartition applies a partitioning online from an explicit
// {"strategy": ..., "k": ...} body. It is JSON in/out and deliberately
// unauthenticated, like /metrics: the server is an internal component;
// put it behind your proxy.
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
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("malformed body: %v (want {\"strategy\": ..., \"k\": ...})", err), http.StatusBadRequest)
		return
	}
	if req.Strategy == "" || req.K == 0 {
		http.Error(w, "provide both strategy and k", http.StatusBadRequest)
		return
	}
	assign, err := s.db.PlanPartition(req.Strategy, req.K)
	if err != nil {
		http.Error(w, fmt.Sprintf("planning partition: %v", err), http.StatusBadRequest)
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
	s.syncEpoch(nil)
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
