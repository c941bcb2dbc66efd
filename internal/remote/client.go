package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"gstored/internal/cluster"
	"gstored/internal/partial"
	"gstored/internal/rdf"
)

// dialTimeout bounds connection establishment when the caller's context
// carries no deadline of its own.
const dialTimeout = 5 * time.Second

// Coordinator owns the worker links of one deployment: it dials the
// worker processes, hands out Site handles (fragments map to workers
// round-robin by ID), and closes the pooled connections on shutdown.
type Coordinator struct {
	links []*workerLink
}

// Connect dials each worker address once to verify it is reachable and
// returns the coordinator handle. The probe connections are pooled for
// reuse.
func Connect(addrs ...string) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: no worker addresses")
	}
	c := &Coordinator{}
	for _, addr := range addrs {
		l := &workerLink{addr: addr}
		nc, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			_ = c.Close() // tearing down the partial connect; Close never fails
			return nil, fmt.Errorf("remote: worker %s: %w", addr, err)
		}
		l.put(&conn{Conn: nc})
		c.links = append(c.links, l)
	}
	return c, nil
}

// NewSite returns the Site handle for fragment id at epoch 0 (no
// generation yet, so nothing to carry forward); installing a fragment
// through it returns the handle that serves a real epoch. Fragments map
// to workers round-robin.
func (c *Coordinator) NewSite(id int) cluster.Site {
	return &Site{link: c.links[id%len(c.links)], id: id}
}

// Close drops every pooled connection. In-flight calls on checked-out
// connections fail at their next read or write.
func (c *Coordinator) Close() error {
	for _, l := range c.links {
		l.close()
	}
	return nil
}

// workerLink is one worker's address plus its idle-connection pool.
// Connections are checked out for the duration of a call (one in-flight
// request per connection) and returned only after a clean final frame,
// so a pooled connection never has residue mid-stream.
type workerLink struct {
	addr string

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// get checks out an idle connection, or dials one when there is none or
// fresh is set.
func (l *workerLink) get(ctx context.Context, fresh bool) (*conn, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("remote: coordinator closed")
	}
	if n := len(l.idle); n > 0 && !fresh {
		c := l.idle[n-1]
		l.idle = l.idle[:n-1]
		l.mu.Unlock()
		return c, nil
	}
	l.mu.Unlock()
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", l.addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: nc}, nil
}

func (l *workerLink) put(c *conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		_ = c.Close() // raced with coordinator shutdown; nothing to report
		return
	}
	l.idle = append(l.idle, c)
}

func (l *workerLink) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	for _, c := range l.idle {
		_ = c.Close() // idle connections; no in-flight call to fail
	}
	l.idle = nil
}

// Site is the RPC implementation of cluster.Site: each call checks a
// connection out of the worker's pool, writes one request frame, and
// reads response frames under the caller's context deadline. Like
// LocalSite it is immutable — SwapGeneration returns a fresh handle
// bound to the new epoch, and queries through an old handle keep
// addressing the generation they pinned (workers keep recent epochs
// resident for exactly this).
type Site struct {
	link  *workerLink
	id    int
	epoch uint64
}

// ID implements cluster.Site.
func (s *Site) ID() int { return s.id }

// call runs one RPC round: request out, frames in until the final one,
// each row-batch frame's rows delivered to onRows as one batch (onRows
// may be nil). The Meter it returns
// counts the round's bytes and frames, and carries the work the final
// frame reports. It retries once, on a freshly dialed connection, after a
// transport error that precedes the first response frame — the request
// provably did not start streaming, and every op is idempotent — and
// never after bytes have come back. The retry does not take another
// pooled connection: after a worker restart every connection pooled
// before it is as dead as the first. Context cancellation interrupts
// blocked connection I/O via an AfterFunc that poisons the deadline.
func (s *Site) call(ctx context.Context, req *request, onRows func([][]rdf.TermID) bool) (resp response, m cluster.Meter, err error) {
	req.Site = s.id
	if req.Epoch == 0 {
		req.Epoch = s.epoch
	}
	if dl, ok := ctx.Deadline(); ok {
		req.TimeoutNS = int64(time.Until(dl))
		if req.TimeoutNS <= 0 {
			return response{}, m, ctx.Err()
		}
	}
	for attempt := 0; ; attempt++ {
		resp, m, err = s.attempt(ctx, req, onRows, attempt > 0)
		if err == nil || attempt > 0 || m.WireMessages > 1 {
			return resp, m, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return resp, m, cerr
		}
		// Transient transport failure before any response frame: the
		// pooled connection may have been closed under us (worker
		// restart, idle teardown). One fresh-connection retry.
	}
}

// attempt is one connection's worth of call, on a new connection when
// fresh is set. m.WireMessages counts frames in both directions (>1 once
// a response frame arrived, which is what disqualifies a retry).
func (s *Site) attempt(ctx context.Context, req *request, onRows func([][]rdf.TermID) bool, fresh bool) (resp response, m cluster.Meter, err error) {
	c, err := s.link.get(ctx, fresh)
	if err != nil {
		return response{}, m, err
	}
	healthy := false
	defer func() {
		if healthy && c.SetDeadline(time.Time{}) == nil {
			s.link.put(c)
		} else {
			_ = c.Close() // connection is being discarded either way
		}
	}()
	if dl, ok := ctx.Deadline(); ok {
		if err := c.SetDeadline(dl); err != nil {
			return response{}, m, err
		}
	}
	// A cancel (not just a deadline) must interrupt blocked reads, or a
	// canceled query would hang until the worker answers.
	stop := context.AfterFunc(ctx, func() {
		_ = c.SetDeadline(time.Unix(1, 0)) // poison pill; a closed conn fails the read anyway
	})
	defer stop()

	n, err := c.send(req)
	m.Wire += n
	if err != nil {
		return response{}, m, s.callErr(ctx, err)
	}
	m.WireMessages++
	deliver := onRows != nil
	for {
		body, n, err := c.recv()
		m.Wire += n
		if err != nil {
			return response{}, m, s.callErr(ctx, err)
		}
		m.WireMessages++
		var frame response
		if err := frame.decode(body); err != nil {
			// A frame arrived, so this is not a transport failure to retry
			// on a fresh connection: the peer speaks something else.
			return response{}, m, s.callErr(ctx, err)
		}
		if frame.Done {
			// The transport did its job; the connection is clean, whether
			// the frame carries a reply or an error.
			healthy = true
			m.Tasks, m.Busy, m.Eval = frame.Tasks, time.Duration(frame.BusyNS), time.Duration(frame.EvalNS)
			return frame, m, frame.err()
		}
		// A satisfied consumer stops delivery; the stream keeps draining
		// so it stays framed (cancellation tears the connection down if
		// the producer runs long).
		if deliver && len(frame.Rows) > 0 {
			deliver = onRows(frame.Rows)
		}
	}
}

// callErr prefers the context's verdict over the transport symptom it
// caused (a poisoned deadline reads as an I/O timeout).
func (s *Site) callErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return fmt.Errorf("remote: site %d (%s): %w", s.id, s.link.addr, err)
}

// Candidates implements cluster.Site.
func (s *Site) Candidates(ctx context.Context, req cluster.CandidatesRequest) (cluster.CandidatesReply, error) {
	resp, m, err := s.call(ctx, &request{
		Op: opCandidates, Query: req.Query, Bits: req.Bits,
	}, nil)
	return cluster.CandidatesReply{Vectors: resp.Vectors, Meter: m}, err
}

// PartialEvalBatches implements cluster.Site: each row-batch frame's
// rows reach emit as one batch. The request's Pool does not travel — the
// worker evaluates on its own pool. The partial matches arrive as one
// set of columns, which gets this site's fragment, and partial.Check
// holds it to the query's shape (the coordinator derives crossing edges
// from the columns by indexing with the query): a reply that does not
// fit fails the call.
func (s *Site) PartialEvalBatches(ctx context.Context, req cluster.PartialRequest, emit func(rows [][]rdf.TermID) bool) (cluster.PartialReply, error) {
	delivered := 0
	resp, m, err := s.call(ctx, &request{
		Op: opPartial, Query: req.Query, Star: req.Star, Center: req.Center,
		Order: req.Order, EdgeRank: req.EdgeRank, Union: req.Union,
	}, func(rows [][]rdf.TermID) bool { delivered += len(rows); return emit(rows) })
	if err != nil {
		// A call its consumer's LIMIT cancels ends on the poisoned
		// deadline, without the final frame's count: the rows it handed
		// to emit were matched all the same.
		resp.LocalMatches = delivered
	} else if !req.Star {
		resp.Set.Frag = s.id
		if err = partial.Check(req.Query, &resp.Set); err != nil {
			err = fmt.Errorf("remote: site %d (%s): %w", s.id, s.link.addr, err)
		}
	}
	return cluster.PartialReply{LocalMatches: resp.LocalMatches, Set: resp.Set, Meter: m}, err
}

// PartialEval implements cluster.Site.
func (s *Site) PartialEval(ctx context.Context, req cluster.PartialRequest, emit func(row []rdf.TermID) bool) (cluster.PartialReply, error) {
	return cluster.EachRow(ctx, s, req, emit)
}

// Stats implements cluster.Site. Only the fragment count comes from the
// worker: the site, address and epoch are the handle's own (the worker
// does not reliably know the name it was dialed by).
func (s *Site) Stats(ctx context.Context) (cluster.SiteInfo, error) {
	resp, _, err := s.call(ctx, &request{Op: opStats}, nil)
	return cluster.SiteInfo{Site: s.id, Addr: s.link.addr, Epoch: s.epoch, Fragments: resp.Fragments}, err
}

// SwapGeneration implements cluster.Site: it installs swap.Epoch at the
// worker with this handle's epoch as the base and returns the handle
// bound to the new epoch. A fragment with a delta beside it travels as
// the delta when the handle has a base, else as its wire payload; nil
// means carry the base forward. The worker refuses a carry or a delta
// with need-sync if it does not hold the base. Installing the handle's
// own epoch with no fragment is the identity and costs no round trip.
func (s *Site) SwapGeneration(ctx context.Context, swap cluster.GenerationSwap) (cluster.Site, error) {
	if swap.Fragment == nil && swap.Epoch == s.epoch {
		return s, nil
	}
	req := &request{Op: opSwap, Epoch: swap.Epoch, Base: s.epoch}
	switch {
	case swap.Fragment == nil: // carry the base forward
	case swap.Delta != nil && s.epoch != 0:
		req.Delta = swap.Delta
	default:
		req.Fragment = swap.Fragment.Payload()
	}
	if _, _, err := s.call(ctx, req, nil); err != nil {
		return nil, err
	}
	return &Site{link: s.link, id: s.id, epoch: swap.Epoch}, nil
}
