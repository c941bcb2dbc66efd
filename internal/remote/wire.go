// Package remote carries the coordinator↔site boundary across process
// lines. It provides the three pieces worker mode needs: a
// dependency-free RPC transport (length-prefixed gob frames over TCP,
// per-call deadlines from the caller's context, retry-on-transient,
// connection reuse), the worker server that hosts fragments and answers
// partial-evaluation RPCs with the same in-process evaluation code the
// single-node path runs, and the client Site implementation the engine
// scatters through. Everything stays at the TermID level — the
// dictionary never crosses the wire; workers match IDs and the
// coordinator resolves terms.
package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"slices"

	"gstored/internal/candidates"
	"gstored/internal/cluster"
	"gstored/internal/fragment"
	"gstored/internal/partial"
	"gstored/internal/query"
	"gstored/internal/rdf"
)

// Operation discriminators; one request struct covers every call so the
// wire needs no type registry beyond gob's own.
const (
	opCandidates = 1
	opPartial    = 2
	opStats      = 3
	opSwap       = 4
)

// maxFrame bounds a single frame; a corrupt length prefix must not turn
// into an arbitrary allocation.
const maxFrame = 1 << 30

// frameChunk is the most readFrame allocates ahead of the bytes it has
// received; frames up to this size are read into one exact allocation.
const frameChunk = 64 << 10

// request is the coordinator→worker frame: the op discriminator plus the
// fields that op reads. Everything is serializable by construction — the
// Site interface contract keeps closures and shared state out.
type request struct {
	Op    int
	Site  int
	Epoch uint64
	// TimeoutNS bounds worker-side evaluation (0 = none); derived from
	// the caller's context deadline so both ends give up together.
	TimeoutNS int64

	// Candidates / PartialEval:
	Query      *query.Graph
	Bits       int
	Star       bool
	Center     int
	Order      []int
	EdgeRank   []int
	Union      *candidates.SiteVectors
	MaxMatches int

	// SwapGeneration:
	SwapPhase int
	Fragment  *fragment.Payload
}

// errKind maps the engine-visible error identities across the wire.
type errKind int

const (
	errNone errKind = iota
	errGeneric
	errCanceled
	errTooMany
	errNeedSync
)

// response is the worker→coordinator frame. PartialEval streams: zero or
// more row-batch frames (Done false, Rows set) and then one final frame
// (Done true) carrying the gathered reply or the error. Every other op
// answers with a single final frame.
type response struct {
	Done bool
	Rows [][]rdf.TermID

	Vectors      *candidates.SiteVectors
	LocalMatches int
	Matches      []*partial.Match
	Tasks        int
	BusyNS       int64
	Info         cluster.SiteInfo
	Epoch        uint64

	ErrKind  errKind
	ErrMsg   string
	ErrLimit int
}

// setErr records err in the frame, preserving the identities the engine
// dispatches on (cancellation, the partial-match limit, missed prepares).
func (r *response) setErr(err error) {
	switch {
	case err == nil:
		r.ErrKind = errNone
	case errors.Is(err, partial.ErrCanceled):
		r.ErrKind = errCanceled
	case errors.Is(err, cluster.ErrNeedSync):
		r.ErrKind, r.ErrMsg = errNeedSync, err.Error()
	default:
		var tooMany partial.ErrTooManyMatches
		if errors.As(err, &tooMany) {
			r.ErrKind, r.ErrLimit = errTooMany, tooMany.Limit
			return
		}
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
	case errTooMany:
		return partial.ErrTooManyMatches{Limit: r.ErrLimit}
	case errNeedSync:
		return fmt.Errorf("%w (%s)", cluster.ErrNeedSync, r.ErrMsg)
	}
	return errors.New(r.ErrMsg)
}

// writeFrame gob-encodes v and writes it length-prefixed (4-byte
// big-endian). It returns the total bytes on the wire — the real
// transport cost the metering reports. A fresh encoder per frame trades
// a little redundancy (type descriptors resent) for framing that cannot
// desynchronize: every frame decodes standalone.
func writeFrame(w io.Writer, v any) (int64, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return 0, err
	}
	n := buf.Len() - 4
	if n > maxFrame {
		return 0, fmt.Errorf("remote: %d-byte frame exceeds limit", n)
	}
	binary.BigEndian.PutUint32(buf.Bytes(), uint32(n))
	written, err := w.Write(buf.Bytes())
	return int64(written), err
}

// readFrame reads one length-prefixed frame into v, returning the bytes
// consumed.
func readFrame(r io.Reader, v any) (int64, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return 4, fmt.Errorf("remote: %d-byte frame exceeds limit", n)
	}
	// The prefix is unauthenticated: the buffer grows only as body bytes
	// actually arrive, so a garbage header cannot buy a maxFrame allocation.
	body := make([]byte, 0, min(int(n), frameChunk))
	for len(body) < int(n) {
		body = slices.Grow(body, min(int(n)-len(body), frameChunk))
		m, err := io.ReadFull(r, body[len(body):min(cap(body), int(n))])
		body = body[:len(body)+m]
		if err != nil {
			return 4, err
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(v); err != nil {
		return int64(4 + n), err
	}
	return int64(4 + n), nil
}
