// Package remote carries the coordinator↔site boundary across process
// lines. It provides the three pieces worker mode needs: a
// dependency-free RPC transport (length-prefixed binary frames over TCP,
// per-call deadlines from the caller's context, retry-on-transient,
// connection reuse), the worker server that hosts fragments and answers
// partial-evaluation RPCs with the same in-process evaluation code the
// single-node path runs, and the client Site implementation the engine
// scatters through. Everything stays at the TermID level — the
// dictionary never crosses the wire; workers match IDs and the
// coordinator resolves terms.
//
// There are two frame types, request and response (wire.go), and one
// encoding of each (codec.go): a 4-byte length, a tag byte naming the
// wire version and the frame type, then the struct's fields in
// declaration order as varints. What a frame costs is therefore a
// function of the values it carries, the candidate sets inside it are the
// very bytes the §IX model prices, and a peer from a build with another
// encoding is refused by version instead of being misread. Both ends
// treat what they read as hostile: a worker decodes a request with every
// count checked against the bytes that arrived, then checks that the
// request is one it can evaluate (request.check), and answers anything
// else with an error frame on a connection that keeps serving.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Operation discriminators; one request struct covers every call, so the
// wire has two frame types and no registry.
const (
	opCandidates = 1
	opPartial    = 2
	opStats      = 3
	opSwap       = 4
)

// maxFrame bounds a single frame; a corrupt length prefix must not turn
// into an arbitrary allocation.
const maxFrame = 1 << 30

// frameChunk is the most recv allocates ahead of the bytes it has
// received.
const frameChunk = 64 << 10

// request is the coordinator→worker frame: the op discriminator plus the
// fields that op reads. Everything is serializable by construction — the
// Site interface contract keeps closures and shared state out. The
// fields travel in this order.
type request struct {
	Op    int
	Site  int
	Epoch uint64
	// TimeoutNS bounds worker-side evaluation (0 = none); derived from
	// the caller's context deadline so both ends give up together.
	TimeoutNS int64

	// PartialEval: the plan order. The site works out the star path and
	// the expansion rank from it and the query.
	Order []int

	// SwapGeneration: the epoch of the generation that a nil Fragment
	// carries into Epoch, or that Delta patches (0 = none).
	Base uint64

	// The optional fields travel last, each behind a presence bit. An
	// install carries at most one of Fragment and Delta.
	Query    *query.Graph
	Union    *candidates.SiteVectors
	Fragment *fragment.Payload
	Delta    *fragment.Delta
}

// errKind maps the engine-visible error identities across the wire.
type errKind int

const (
	errNone errKind = iota
	errGeneric
	errCanceled
	errNeedSync
	numErrKinds
)

// response is the worker→coordinator frame. PartialEval streams: zero or
// more row-batch frames (Done false, Rows set) and then one final frame
// (Done true) carrying the gathered reply or the error. Every other op
// answers with a single final frame.
type response struct {
	Done bool
	Rows [][]rdf.TermID

	Vectors *candidates.SiteVectors
	Set     partial.Set
	Tasks   int
	BusyNS  int64
	// EvalNS is the worker's own wall time for a PartialEval's evaluation,
	// row batches written included and both ends' codec work excluded:
	// what the round trip took beyond it is the transport's share.
	EvalNS int64
	// Fragments counts the fragments resident at the worker (Stats).
	Fragments int

	ErrKind errKind
	ErrMsg  string
}

// setErr records err in the frame, preserving the identities the engine
// dispatches on (cancellation, need-sync).
func (r *response) setErr(err error) {
	switch {
	case err == nil:
		r.ErrKind = errNone
	case errors.Is(err, partial.ErrCanceled):
		r.ErrKind = errCanceled
	case errors.Is(err, cluster.ErrNeedSync):
		r.ErrKind, r.ErrMsg = errNeedSync, err.Error()
	default:
		r.ErrKind, r.ErrMsg = errGeneric, err.Error()
	}
}

// err reconstructs the error a frame carries (nil for errNone).
func (r *response) err() error {
	switch r.ErrKind {
	case errNone:
		return nil
	case errCanceled:
		return partial.ErrCanceled
	case errNeedSync:
		return fmt.Errorf("%w (%s)", cluster.ErrNeedSync, r.ErrMsg)
	}
	return errors.New(r.ErrMsg)
}

// keepBuf is the largest frame buffer a connection holds on to between
// frames; the occasional fragment-sized frame is not worth pinning its
// megabytes to every pooled connection.
const keepBuf = 1 << 20

// conn is one connection and the two buffers its frames are built in and
// read into. A connection carries one call at a time, so whoever holds
// it owns both buffers; nothing decoded points into them.
type conn struct {
	net.Conn
	out, in []byte
}

// frame is either frame type, as the encoder sees it.
type frame interface{ appendTo(b []byte) []byte }

// send writes f as one frame — 4-byte big-endian length, then the body —
// and returns the total bytes on the wire, the real transport cost the
// metering reports.
func (c *conn) send(f frame) (int64, error) {
	b := f.appendTo(append(c.out[:0], 0, 0, 0, 0))
	if cap(b) <= keepBuf {
		c.out = b
	}
	n := len(b) - 4
	if n > maxFrame {
		return 0, fmt.Errorf("remote: %d-byte frame exceeds limit", n)
	}
	binary.BigEndian.PutUint32(b, uint32(n))
	written, err := c.Write(b)
	return int64(written), err
}

// recv reads one frame and returns its body, which is valid until the
// next recv, and the bytes consumed.
func (c *conn) recv() ([]byte, int64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return nil, 4, fmt.Errorf("remote: %d-byte frame exceeds limit", n)
	}
	// The prefix is unauthenticated: the buffer grows only as body bytes
	// actually arrive, so a garbage header cannot buy a maxFrame allocation.
	body := c.in[:0]
	for len(body) < n {
		body = slices.Grow(body, min(n-len(body), frameChunk))
		m, err := io.ReadFull(c, body[len(body):min(cap(body), n)])
		body = body[:len(body)+m]
		if err != nil {
			return nil, 4, err
		}
	}
	if cap(body) <= keepBuf {
		c.in = body
	}
	return body, int64(4 + n), nil
}
