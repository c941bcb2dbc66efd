package server

import (
	"context"
	"errors"
	"net/http"
	"strings"
)

// handleUpdate applies a SPARQL 1.1 Update request (INSERT DATA /
// DELETE DATA over ground triples) and reports what changed.
//
// Correctness against the result table needs no work here beyond
// calling DB.Update: a data-changing update commits as a new cluster
// generation with a higher epoch, and a table entry — resident or in
// flight — answers only requests of its own epoch, so a result computed
// before the write answers a request arriving after it only once
// revalidation has proved it unchanged. That revalidation runs
// in the next read's syncEpoch, not here: it costs about 0.1 ms per 256
// entries, which a read pays once per update but which would be most of
// a small update's latency.
//
// Updates run inline rather than through the query scheduler: they
// serialize on the database's swap mutex anyway, touch only the delta's
// fragments, and must not be shed by admission control meant to protect
// query capacity.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request, text string) {
	if !s.cfg.Writable {
		http.Error(w, "read-only endpoint: restart with -writable to accept updates", http.StatusForbidden)
		return
	}
	if strings.TrimSpace(text) == "" {
		http.Error(w, "missing 'update' parameter", http.StatusBadRequest)
		return
	}
	// Not the scheduler, but still admission control: without a cap a
	// flood of update POSTs piles goroutines and bodies onto the swap
	// mutex unboundedly. Shed beyond MaxInFlight queued writers.
	if !s.updateSlots.tryAcquire() {
		s.fail(w, "update", ErrOverloaded)
		return
	}
	defer s.updateSlots.release()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	stats, err := s.db.Update(ctx, text)
	if err != nil {
		// Only a syntax error is the client's fault; a worker down at
		// install, or a failed delta, is a 500 like any engine fault.
		// An update that failed under an expired context is classified
		// by the expiry, whatever error surfaced it.
		s.fail(w, "update", errors.Join(err, ctx.Err()))
		return
	}
	s.metrics.Updates.Add(1)
	s.metrics.TriplesInserted.Add(int64(stats.Inserted))
	s.metrics.TriplesDeleted.Add(int64(stats.Deleted))
	s.writeJSON(w, r, map[string]any{
		"inserted":          stats.Inserted,
		"deleted":           stats.Deleted,
		"rebuilt_fragments": stats.RebuiltFragments,
		"epoch":             stats.Epoch,
	}, "")
}
