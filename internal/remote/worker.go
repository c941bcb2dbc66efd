package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/pool"
	"gstored/internal/rdf"
	"gstored/internal/store"
)

// keepEpochs is how many generations behind the last installed epoch a
// worker keeps resident, so executions that pinned a recent generation at
// the coordinator finish against the fragment they started on.
const keepEpochs = 2

// Worker hosts fragments for a coordinator: it loads them from the
// coordinator's epoch installs, serves partial-evaluation RPCs against
// them with the same in-process evaluation code the single-node path runs
// (a cluster.LocalSite per resident generation — byte-identical semantics
// by construction), and answers any call naming a generation it does not
// hold with the need-sync error, after which the coordinator re-ships the
// full fragment.
type Worker struct {
	dict *rdf.Dictionary
	pool *pool.Pool

	mu sync.Mutex
	// sites holds each hosted fragment's resident generations by epoch:
	// the last installed epoch and up to keepEpochs before it.
	sites map[int]map[uint64]*fragment.Fragment
	ln    net.Listener
	conns map[net.Conn]bool
	done  bool

	wg sync.WaitGroup
}

// NewWorker returns an empty worker; fragments arrive with the epoch
// installs. evalWorkers sizes its evaluation pool (0 = GOMAXPROCS).
func NewWorker(evalWorkers int) *Worker {
	return &Worker{
		dict:  rdf.NewDictionary(),
		pool:  pool.New(evalWorkers),
		sites: make(map[int]map[uint64]*fragment.Fragment),
		conns: make(map[net.Conn]bool),
	}
}

// Serve accepts coordinator connections on ln until Close; one goroutine
// per connection, one in-flight request per connection (the client's
// connection pool provides call parallelism).
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.done {
		w.mu.Unlock()
		return errors.New("remote: worker closed")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			done := w.done
			w.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.done {
			w.mu.Unlock()
			_ = conn.Close() // shutting down; the dialer sees the reset
			return nil
		}
		w.conns[conn] = true
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			w.serveConn(conn)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Close stops the listener, closes every live connection, and waits for
// the connection handlers to drain.
func (w *Worker) Close() error {
	w.mu.Lock()
	w.done = true
	ln := w.ln
	conns := make([]net.Conn, 0, len(w.conns))
	for c := range w.conns {
		conns = append(conns, c)
	}
	w.mu.Unlock()
	if ln != nil {
		_ = ln.Close() // unblocks Accept; double-close is the only error
	}
	for _, c := range conns {
		_ = c.Close() // forcing handlers off their reads
	}
	w.wg.Wait()
	return nil
}

// serveConn handles one connection's request loop. A frame that does not
// arrive whole is a broken stream, so the connection drops. A whole frame
// that does not decode, or decodes to a request this worker cannot
// evaluate, is the peer's mistake and leaves the framing intact: like a
// handler error it travels back in the final response frame and the
// connection keeps serving.
func (w *Worker) serveConn(nc net.Conn) {
	defer nc.Close()
	c := &conn{Conn: nc}
	for {
		body, _, err := c.recv()
		if err != nil {
			return
		}
		var req request
		err = req.decode(body)
		if err == nil {
			err = req.check()
		}
		if err != nil {
			refusal := response{Done: true}
			refusal.setErr(err)
			if _, err := c.send(&refusal); err != nil {
				return
			}
			continue
		}
		if !w.handle(c, &req) {
			return
		}
	}
}

// check reports why a decoded request cannot be evaluated. The decoder
// vouches for the encoding only; this is what stands between a well-framed
// request and the evaluation code, which indexes by what the request says.
func (q *request) check() error {
	switch q.Op {
	case opStats:
		return nil
	case opSwap:
		switch {
		case q.Fragment != nil && q.Delta != nil:
			return errors.New("remote: install carries both a fragment and a delta")
		case q.Delta != nil && q.Base == 0:
			return errors.New("remote: delta install names no base")
		}
		return nil
	case opCandidates, opPartial:
	default:
		return fmt.Errorf("remote: unknown op %d", q.Op)
	}
	if q.Query == nil {
		return errors.New("remote: request carries no query")
	}
	if err := q.Query.Validate(); err != nil {
		return err
	}
	if edges := len(q.Query.Edges); len(q.Order) != 0 && !store.ValidOrder(q.Order, edges) {
		return fmt.Errorf("remote: a %d-entry order is not a permutation of the query's %d edges", len(q.Order), edges)
	}
	return nil
}

// handle dispatches one checked request, writing the response frame(s) to
// c; it reports whether the connection is still usable.
func (w *Worker) handle(c *conn, req *request) bool {
	// The request frame is this context's root: the coordinator's
	// deadline arrives as TimeoutNS, applied just below.
	ctx := context.Background()
	if req.TimeoutNS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNS))
		defer cancel()
	}
	var final response
	final.Done = true
	switch req.Op {
	case opCandidates:
		w.handleCandidates(ctx, req, &final)
	case opPartial:
		start := time.Now()
		if !w.handlePartial(ctx, c, req, &final) {
			return false
		}
		final.EvalNS = int64(time.Since(start))
	case opStats:
		w.handleStats(req, &final)
	case opSwap:
		w.handleSwap(req, &final)
	}
	_, err := c.send(&final)
	return err == nil
}

// generation resolves the fragment serving (site, epoch); the error is
// need-sync when the epoch is not resident here, so the coordinator
// knows a re-ship (not a retry) is the fix.
//
//gstored:genaccessor
func (w *Worker) generation(site int, epoch uint64) (*fragment.Fragment, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	f := w.sites[site][epoch]
	if f == nil {
		return nil, fmt.Errorf("%w: site %d has no generation for epoch %d", cluster.ErrNeedSync, site, epoch)
	}
	return f, nil
}

func (w *Worker) handleCandidates(ctx context.Context, req *request, final *response) {
	f, err := w.generation(req.Site, req.Epoch)
	if err != nil {
		final.setErr(err)
		return
	}
	local := cluster.NewLocalSite(req.Site, f, req.Epoch)
	rep, err := local.Candidates(ctx, cluster.CandidatesRequest{Query: req.Query})
	if err != nil {
		final.setErr(err)
		return
	}
	final.Vectors = rep.Vectors
	final.Tasks = rep.Tasks
	final.BusyNS = int64(rep.Busy)
}

// handlePartial runs the site-local evaluation stage, streaming row
// batches as they fill. It reports whether the connection survived: a
// mid-stream write failure means the coordinator is gone, so production
// stops and the connection drops.
func (w *Worker) handlePartial(ctx context.Context, c *conn, req *request, final *response) bool {
	f, err := w.generation(req.Site, req.Epoch)
	if err != nil {
		final.setErr(err)
		return true
	}
	local := cluster.NewLocalSite(req.Site, f, req.Epoch)

	// Seed chunks emit concurrently, so each producer's batch is copied
	// into the frame and frames are written under one mutex; a frame
	// carries store.RowBatch rows, whatever the batches' sizes. A write
	// failure latches and stops every producer at its next batch.
	var (
		emu    sync.Mutex
		frame  [][]rdf.TermID
		slab   []rdf.TermID // the frame's rows
		broken bool
	)
	flush := func() error { // callers hold emu
		if len(frame) == 0 {
			return nil
		}
		_, werr := c.send(&response{Rows: frame})
		frame, slab = frame[:0], slab[:0]
		return werr
	}
	emit := func(rows [][]rdf.TermID) bool {
		emu.Lock()
		defer emu.Unlock()
		for _, row := range rows {
			if broken {
				return false
			}
			if frame == nil { // a frame's worth, once a row arrives
				frame = make([][]rdf.TermID, 0, store.RowBatch)
				slab = make([]rdf.TermID, 0, store.RowBatch*len(row))
			}
			slab = append(slab, row...)
			frame = append(frame, slab[len(slab)-len(row):len(slab):len(slab)])
			if len(frame) == store.RowBatch && flush() != nil {
				broken = true
			}
		}
		return !broken
	}

	rep, err := local.PartialEvalBatches(ctx, cluster.PartialRequest{
		Query: req.Query, Order: req.Order, Union: req.Union, Pool: w.pool,
	}, emit)

	emu.Lock()
	if !broken {
		if ferr := flush(); ferr != nil {
			broken = true
		}
	}
	dead := broken
	emu.Unlock()
	if dead {
		_ = err // the coordinator hung up; there is nowhere to report the evaluation error
		return false
	}
	if err != nil {
		final.setErr(err)
		return true
	}
	final.Set = rep.Set
	final.Tasks = rep.Tasks
	final.BusyNS = int64(rep.Busy)
	return true
}

// handleStats answers for the generation the handle names: a worker
// that does not hold it (restarted, say) cannot serve the handle's
// queries, so the probe fails with need-sync instead of reporting a live
// site.
func (w *Worker) handleStats(req *request, final *response) {
	if _, err := w.generation(req.Site, req.Epoch); err != nil {
		final.setErr(err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	final.Fragments = len(w.sites)
}

// handleSwap installs a site's generation for req.Epoch: the shipped
// fragment, or the resident generation req.Base, which the new epoch
// extends — carried as it is, or with the shipped delta applied by the
// coordinator's own Fragment.Apply — and need-sync when that is not
// resident. It then prunes every generation above req.Epoch (residue of
// an install the coordinator aborted, or of an earlier coordinator) and
// every one more than keepEpochs below it. Installing is idempotent, so
// the transport may retry it.
func (w *Worker) handleSwap(req *request, final *response) {
	// Index or patch the fragment before taking w.mu to install it: every
	// query on this worker looks its generation up under that lock.
	var f *fragment.Fragment
	var err error
	if req.Fragment != nil {
		f, err = fragment.FromPayload(req.Fragment, w.dict)
	} else if f, err = w.generation(req.Site, req.Base); err == nil && req.Delta != nil {
		f, err = f.Apply(req.Delta)
	}
	if err != nil {
		final.setErr(err)
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	gens := w.sites[req.Site]
	if gens == nil {
		gens = make(map[uint64]*fragment.Fragment)
		w.sites[req.Site] = gens
	}
	gens[req.Epoch] = f
	for e := range gens {
		if e > req.Epoch || req.Epoch-e > keepEpochs {
			delete(gens, e)
		}
	}
}
