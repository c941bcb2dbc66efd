package remote

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"gstored/internal/cluster"
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

// Addrs lists the worker addresses in connection order.
func (c *Coordinator) Addrs() []string {
	out := make([]string, len(c.links))
	for i, l := range c.links {
		out[i] = l.addr
	}
	return out
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

func (l *workerLink) get(ctx context.Context) (*conn, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("remote: coordinator closed")
	}
	if n := len(l.idle); n > 0 {
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

// Epoch reports the generation this handle addresses.
func (s *Site) Epoch() uint64 { return s.epoch }

// call runs one RPC round: request out, frames in until the final one,
// row batches delivered to onRow (which may be nil). It retries once on
// a transport error that precedes the first response frame — the request
// provably did not start streaming, and every op is idempotent — and
// never after bytes have come back. Context cancellation interrupts
// blocked connection I/O via an AfterFunc that poisons the deadline.
func (s *Site) call(ctx context.Context, req *request, onRow func([]rdf.TermID) bool) (resp response, wire, messages int64, err error) {
	req.Site = s.id
	if req.Epoch == 0 {
		req.Epoch = s.epoch
	}
	if dl, ok := ctx.Deadline(); ok {
		req.TimeoutNS = int64(time.Until(dl))
		if req.TimeoutNS <= 0 {
			return response{}, 0, 0, ctx.Err()
		}
	}
	for attempt := 0; ; attempt++ {
		resp, wire, messages, err = s.attempt(ctx, req, onRow)
		if err == nil || attempt > 0 || messages > 1 {
			return resp, wire, messages, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return resp, wire, messages, cerr
		}
		// Transient transport failure before any response frame: the
		// pooled connection may have been closed under us (worker
		// restart, idle teardown). One fresh-connection retry.
	}
}

// attempt is one connection's worth of call. messages counts frames in
// both directions (>1 once a response frame arrived, which is what
// disqualifies a retry).
func (s *Site) attempt(ctx context.Context, req *request, onRow func([]rdf.TermID) bool) (resp response, wire, messages int64, err error) {
	c, err := s.link.get(ctx)
	if err != nil {
		return response{}, 0, 0, err
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
			return response{}, 0, 0, err
		}
	}
	// A cancel (not just a deadline) must interrupt blocked reads, or a
	// canceled query would hang until the worker answers.
	stop := context.AfterFunc(ctx, func() {
		_ = c.SetDeadline(time.Unix(1, 0)) // poison pill; a closed conn fails the read anyway
	})
	defer stop()

	n, err := c.send(req)
	wire += n
	if err != nil {
		return response{}, wire, messages, s.callErr(ctx, err)
	}
	messages++
	deliver := onRow != nil
	for {
		body, n, err := c.recv()
		wire += n
		if err != nil {
			return response{}, wire, messages, s.callErr(ctx, err)
		}
		messages++
		var frame response
		if err := frame.decode(body); err != nil {
			// A frame arrived, so this is not a transport failure to retry
			// on a fresh connection: the peer speaks something else.
			return response{}, wire, messages, s.callErr(ctx, err)
		}
		if frame.Done {
			if ferr := frame.err(); ferr != nil {
				// The transport did its job; the connection is clean.
				healthy = true
				return frame, wire, messages, ferr
			}
			healthy = true
			return frame, wire, messages, nil
		}
		if deliver {
			for _, row := range frame.Rows {
				if !onRow(row) {
					// The consumer is satisfied; keep draining so the
					// stream stays framed (cancellation tears the
					// connection down if the producer runs long).
					deliver = false
					break
				}
			}
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
	resp, wire, messages, err := s.call(ctx, &request{
		Op: opCandidates, Query: req.Query, Bits: req.Bits,
	}, nil)
	if err != nil {
		return cluster.CandidatesReply{}, err
	}
	return cluster.CandidatesReply{Vectors: resp.Vectors, Wire: wire, WireMessages: messages}, nil
}

// PartialEval implements cluster.Site. The request's Pool does not
// travel — the worker evaluates on its own pool.
func (s *Site) PartialEval(ctx context.Context, req cluster.PartialRequest, emit func(row []rdf.TermID) bool) (cluster.PartialReply, error) {
	resp, wire, messages, err := s.call(ctx, &request{
		Op: opPartial, Query: req.Query, Star: req.Star, Center: req.Center,
		Order: req.Order, EdgeRank: req.EdgeRank, Union: req.Union,
		MaxMatches: req.MaxMatches,
	}, emit)
	rep := cluster.PartialReply{Wire: wire, WireMessages: messages}
	if err != nil {
		return rep, err
	}
	rep.LocalMatches = resp.LocalMatches
	rep.Matches = resp.Matches
	rep.Tasks = resp.Tasks
	rep.Busy = time.Duration(resp.BusyNS)
	rep.Eval = time.Duration(resp.EvalNS)
	return rep, nil
}

// Stats implements cluster.Site. The address is filled client-side: the
// worker does not reliably know the name it was dialed by.
func (s *Site) Stats(ctx context.Context) (cluster.SiteInfo, error) {
	resp, _, _, err := s.call(ctx, &request{Op: opStats}, nil)
	if err != nil {
		return cluster.SiteInfo{Site: s.id, Addr: s.link.addr}, err
	}
	info := resp.Info
	info.Addr = s.link.addr
	return info, nil
}

// SwapGeneration implements cluster.Site: it installs swap.Epoch at the
// worker with this handle's epoch as the base and returns the handle
// bound to the new epoch. The shipped fragment travels as its wire
// payload; nil means carry the base forward, which the worker refuses
// with need-sync if it does not hold the base. Installing the handle's
// own epoch with no fragment is the identity and costs no round trip.
func (s *Site) SwapGeneration(ctx context.Context, swap cluster.GenerationSwap) (cluster.Site, error) {
	if swap.Fragment == nil && swap.Epoch == s.epoch {
		return s, nil
	}
	req := &request{Op: opSwap, Epoch: swap.Epoch, Base: s.epoch}
	if swap.Fragment != nil {
		req.Fragment = swap.Fragment.Payload()
	}
	if _, _, _, err := s.call(ctx, req, nil); err != nil {
		return nil, err
	}
	return &Site{link: s.link, id: s.id, epoch: swap.Epoch}, nil
}
