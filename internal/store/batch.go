package store

import (
	"sync"

	"gstored/internal/rdf"
)

// RowBatch is the most rows one batch carries: a Batcher's ceiling, and
// the rows of one streamed frame on the wire.
const RowBatch = 256

// Batcher gathers one producer's rows, each width TermIDs, into a reused
// batch carved from one slab, and hands the batch to yield when it
// reaches its fill threshold: one row at first, doubling with every such
// flush up to RowBatch. The first row therefore leaves at once, and a
// consumer that stops early (an unordered LIMIT) is over-delivered at
// most one batch. The rows handed to yield are valid only during the
// call: a consumer that keeps one copies it. A Batcher is one producer's
// and is not safe for concurrent use; its buffers come from a pool that
// Release returns them to, so a producer allocates nothing per row and,
// once the pool is warm, nothing per batch.
type Batcher struct {
	width, fill int
	slab        []rdf.TermID
	rows        [][]rdf.TermID
	yield       func([][]rdf.TermID) bool
}

var batchers = sync.Pool{New: func() any { return new(Batcher) }}

// NewBatcher returns an empty batcher of rows width TermIDs wide.
func NewBatcher(width int, yield func([][]rdf.TermID) bool) *Batcher {
	b := batchers.Get().(*Batcher)
	b.width, b.fill, b.yield, b.rows = width, 1, yield, b.rows[:0]
	return b
}

// Release drops the pending rows and returns b's buffers to the pool; b
// is not used again.
func (b *Batcher) Release() {
	b.yield = nil
	batchers.Put(b)
}

// Next returns the zeroed row that the next Add commits. It stays the
// same row until Add commits it, so a producer that abandons a row it
// began simply asks again.
func (b *Batcher) Next() []rdf.TermID {
	n := len(b.rows)
	if n == 0 && (b.slab == nil || cap(b.rows) < b.fill || len(b.slab) < b.fill*b.width) {
		// The threshold outgrew the buffers: grow them to it, and to 8
		// rows at first, so that a small answer allocates once.
		c := max(b.fill, 8)
		if cap(b.rows) < c {
			b.rows = make([][]rdf.TermID, 0, c)
		}
		if b.slab == nil || len(b.slab) < c*b.width {
			b.slab = make([]rdf.TermID, c*b.width)
		}
	}
	row := b.slab[n*b.width : (n+1)*b.width : (n+1)*b.width]
	clear(row)
	return row
}

// Add commits the row Next returned and flushes the batch once it holds
// the threshold's rows. It reports false once yield declined a batch.
func (b *Batcher) Add() bool {
	n := len(b.rows)
	b.rows = append(b.rows, b.slab[n*b.width:(n+1)*b.width:(n+1)*b.width])
	if len(b.rows) < b.fill {
		return true
	}
	b.fill = min(2*b.fill, RowBatch)
	return b.Flush()
}

// Flush hands the pending rows, if any, to yield, and reports false if
// it declined them.
func (b *Batcher) Flush() bool {
	if len(b.rows) == 0 {
		return true
	}
	ok := b.yield(b.rows)
	b.rows = b.rows[:0]
	return ok
}
