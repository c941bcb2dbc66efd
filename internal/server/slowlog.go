package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gstored"
	"gstored/internal/trace"
)

// SlowQueryRecord is one structured slow-query log line: everything an
// operator needs to see why a query was slow without re-running it —
// the canonical key identifies the query across textual variants, the
// epoch pins which cluster generation answered it, the stage and
// fragment breakdowns say where the time and traffic went, and the span
// timeline shows how the stages overlapped.
type SlowQueryRecord struct {
	Time    string `json:"time"`
	Outcome string `json:"outcome"`
	// Key is the canonical query key (mode + canonicalized query): the
	// result table's key.
	Key        string  `json:"key"`
	Epoch      uint64  `json:"epoch"`
	WallMillis float64 `json:"wall_ms"`
	Rows       int     `json:"rows,omitempty"`

	// Engine-side fields; absent for servings that ran no engine (cache
	// hits carry the stats of the execution that populated the entry).
	ShipmentBytes int64             `json:"shipment_bytes,omitempty"`
	Messages      int64             `json:"messages,omitempty"`
	Stages        []ExplainStage    `json:"stages,omitempty"`
	Fragments     []ExplainFragment `json:"fragments,omitempty"`
	Trace         []trace.Span      `json:"trace,omitempty"`
}

// slowLogger emits one JSON line per query at or over the threshold.
// A zero threshold logs every query — the knob CI uses to assert that
// every request produces a structured trace line.
type slowLogger struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
	// drops counts lines lost to marshal or sink failures: a silent
	// slow-log gap during an incident is itself an incident signal worth
	// scraping.
	drops *atomic.Int64
}

// maybeLog is a no-op on a nil logger (slow-query logging disabled).
func (l *slowLogger) maybeLog(o queryOutcome, wall time.Duration, key string, epoch uint64, stats *gstored.Stats, rows int, tr *trace.Trace) {
	if l == nil || wall < l.threshold {
		return
	}
	rec := SlowQueryRecord{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Outcome:    outcomeNames[o],
		Key:        key,
		Epoch:      epoch,
		WallMillis: millis(wall),
		Rows:       rows,
		Trace:      tr.Spans(),
	}
	if stats != nil {
		rec.ShipmentBytes = stats.TotalShipment
		rec.Messages = stats.Messages
		rec.Stages = explainStages(stats)
		rec.Fragments = explainFragments(stats.Fragments)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		l.drops.Add(1)
		return
	}
	line = append(line, '\n')
	// One line per write under one lock: concurrent slow queries must
	// not interleave bytes within a line (the sink may be a shared
	// file), and the rotating writer rotates on whole lines.
	l.mu.Lock()
	_, werr := l.w.Write(line)
	l.mu.Unlock()
	if werr != nil {
		l.drops.Add(1)
	}
}

// RotatingWriter is a size-bounded file sink for the slow-query log:
// when a write would push the current file past maxBytes, the file is
// rotated to <path>.1 (replacing any previous rotation) and a fresh
// file opened — so the log holds at most ~2x maxBytes on disk no matter
// how long the server runs or how slow its queries get.
type RotatingWriter struct {
	mu       sync.Mutex
	path     string
	maxBytes int64
	f        *os.File
	size     int64
}

// NewRotatingWriter opens (appending) the log file at path, rotating at
// maxBytes (minimum 1 KiB; 0 selects 64 MiB).
func NewRotatingWriter(path string, maxBytes int64) (*RotatingWriter, error) {
	if maxBytes == 0 {
		maxBytes = 64 << 20
	}
	if maxBytes < 1<<10 {
		maxBytes = 1 << 10
	}
	w := &RotatingWriter{path: path, maxBytes: maxBytes}
	if err := w.open(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *RotatingWriter) open() error {
	f, err := os.OpenFile(w.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close() // the Stat failure is the error worth reporting
		return err
	}
	w.f, w.size = f, st.Size()
	return nil
}

// Write implements io.Writer; callers are expected to write whole lines
// (the slow logger does), so rotation never splits a record.
func (w *RotatingWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return 0, fmt.Errorf("server: rotating writer closed")
	}
	if w.size > 0 && w.size+int64(len(p)) > w.maxBytes {
		if err := w.rotate(); err != nil {
			return 0, err
		}
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

// rotate moves the current file to <path>.1 and opens a fresh <path>.
// A failed Close or Rename fails only the write that triggered it:
// <path> is reopened for appending either way, and the size count
// restarts so the next attempt comes one window later instead of
// failing every write until restart.
func (w *RotatingWriter) rotate() error {
	err := w.f.Close()
	if err == nil {
		if rerr := os.Rename(w.path, w.path+".1"); rerr != nil && !os.IsNotExist(rerr) {
			err = rerr
		}
	}
	if oerr := w.open(); oerr != nil {
		w.f = nil
		return errors.Join(err, oerr)
	}
	if err != nil {
		w.size = 0
	}
	return err
}

// Close closes the current file; further writes fail.
func (w *RotatingWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
