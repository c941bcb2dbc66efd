package server

import (
	"fmt"
	"io"
	"iter"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"gstored/internal/engine"
	"gstored/internal/rdf"
)

// Result media types served by the /sparql endpoint.
const (
	ContentTypeJSON = "application/sparql-results+json"
	ContentTypeTSV  = "text/tab-separated-values"
)

// flushEveryRows is how often the serializers flush the HTTP response
// while streaming, so long results reach slow consumers incrementally
// without paying a flush per row. The first write, which carries the
// head and row one, needs no flush here: a streaming response flushes
// its first write itself (streamResponse), so ordered and cached
// responses keep their original buffering.
const flushEveryRows = 1024

// writeBatchBytes is how many rendered bytes writeRows gathers before it
// hands them to the writer: one write per batch, not per row, so a long
// stream costs the HTTP layer (and the kernel) its bytes, not its rows.
const writeBatchBytes = 64 << 10

// RowSeq is a push-style iterator over result rows: it calls yield once
// per row, in order, stopping when yield returns false. Rows passed to
// yield may be reused between calls — consumers that retain a row beyond
// the call must copy it. engine.Result.EachProjected satisfies it, and so
// does the streaming execution's sink.
type RowSeq = iter.Seq[engine.Row]

// WriteResultsJSON serializes rows in the SPARQL 1.1 Query Results JSON
// Format. vars are the projected variable names without the leading '?';
// rows yield projected rows (one slot per var, rdf.NoTerm = unbound,
// which the format expresses by omitting the variable from the binding).
//
// The document is written incrementally (writeRows), so a large result
// set is never held as a single in-memory document.
//
// The per-row path is hand-rolled: the earlier map[string]jsonTerm +
// json.Marshal implementation spent over 80% of the cold large-query
// wall clock in reflection and per-row map churn. The output stays
// byte-identical — variables in sorted-name order (Marshal sorted the
// map keys) and encoding/json's exact string escaping, HTML escapes
// included — and terms render once per distinct ID through a cell table
// private to the call (a Server keeps one per format for its lifetime).
func WriteResultsJSON(w io.Writer, dict *rdf.Dictionary, vars []string, rows RowSeq) error {
	return writeJSON(w, newTermTable(dict, appendTermJSON), vars, rows)
}

// writeJSON is WriteResultsJSON rendering terms through cells.
func writeJSON(w io.Writer, cells *termTable, vars []string, rows RowSeq) error {
	rb := cells.buffer()
	defer cells.release(rb)
	ord := rb.ord[:0]
	for i := range vars {
		ord = append(ord, i)
	}
	slices.SortFunc(ord, func(a, b int) int { return strings.Compare(vars[a], vars[b]) })
	// The head renders vars as json.Marshal does, a nil slice as null;
	// keys holds var i's `"name":` at ends[i]:ends[i+1].
	keys, ends := rb.keys[:0], append(rb.ends[:0], 0)
	head := append(rb.b[:0], `{"head":{"vars":`...)
	if vars == nil {
		head = append(head, "null"...)
	} else {
		head = append(head, '[')
		for i, name := range vars {
			if i > 0 {
				head = append(head, ',')
			}
			head = appendJSONString(head, name)
			keys = append(appendJSONString(keys, name), ':')
			ends = append(ends, len(keys))
		}
		head = append(head, ']')
	}
	rb.b = append(head, `},"results":{"bindings":[`...)
	rb.ord, rb.keys, rb.ends = ord, keys, ends
	return writeRows(w, rb, rows, func(b []byte, n int, row engine.Row) ([]byte, error) {
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		first := true
		for _, i := range ord {
			if i >= len(row) || row[i] == rdf.NoTerm {
				continue
			}
			tb, err := cells.get(row[i])
			if err != nil {
				return b, err
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, keys[ends[i]:ends[i+1]]...)
			b = append(b, tb...)
		}
		return append(b, '}'), nil
	}, "]}}\n")
}

// rowBuffer is one response's scratch, reused by the responses after it
// (termTable.buffer): the bytes writeRows gathers, writeRows' state, and
// the JSON writer's column order and rendered keys.
type rowBuffer struct {
	b    []byte
	n    int
	err  error
	ord  []int
	keys []byte
	ends []int
}

// buffer takes a row buffer from the table's pool, with room for
// writeBatchBytes.
func (t *termTable) buffer() *rowBuffer {
	if rb, ok := t.bufs.Get().(*rowBuffer); ok {
		return rb
	}
	return &rowBuffer{b: make([]byte, 0, writeBatchBytes)}
}

// release returns rb to the pool, unless a huge row grew it past twice
// the batch.
func (t *termTable) release(rb *rowBuffer) {
	if cap(rb.b) <= 2*writeBatchBytes {
		rb.n, rb.err = 0, nil
		t.bufs.Put(rb)
	}
}

// writeRows is the row loop both serializations share, and the one place
// that decides when an answer's first byte leaves: the response's row
// buffer (rb.b, from the server's pool) starts with the head and takes
// each row as appendRow renders it (n is the row's index), so a response
// allocates nothing per row, nor to grow its buffer. The buffer goes to
// w in one write right after the first row — so head and row one leave
// together, and nothing leaves before the rows have produced one — then
// whenever it reaches
// writeBatchBytes, at every flushEveryRows-th row, where an http.Flusher
// w is also flushed, and last with tail (for an empty answer, head and
// tail in one write). The first render or write error stops the rows and
// is returned.
func writeRows(w io.Writer, rb *rowBuffer, rows RowSeq, appendRow func(b []byte, n int, row engine.Row) ([]byte, error), tail string) error {
	flusher, _ := w.(http.Flusher)
	rows(func(row engine.Row) bool {
		if rb.b, rb.err = appendRow(rb.b, rb.n, row); rb.err != nil {
			return false
		}
		rb.n++
		if n := rb.n; n == 1 || n%flushEveryRows == 0 || len(rb.b) >= writeBatchBytes {
			if _, rb.err = w.Write(rb.b); rb.err != nil {
				return false
			}
			rb.b = rb.b[:0]
			if flusher != nil && n%flushEveryRows == 0 {
				flusher.Flush()
			}
		}
		return true
	})
	if rb.err != nil {
		return rb.err
	}
	if rb.b = append(rb.b, tail...); len(rb.b) > 0 {
		_, rb.err = w.Write(rb.b)
	}
	return rb.err
}

// termTable maps TermIDs to their cells in one format, rendering each
// term the first time a row serves it. The dictionary only appends and a
// term never changes once it has an ID, so a cell stays valid as long as
// the table does: a Server keeps one table per format for its lifetime,
// and the dictionary bounds it. Readers take no lock: they load one
// immutable snapshot, and a cell found there is never written again.
// Writers fill under mu. The storage holds no per-term pointers: each
// slot packs where its cell lies in the byte chunks.
type termTable struct {
	dict   *rdf.Dictionary
	render func([]byte, rdf.Term) []byte
	snap   atomic.Pointer[cellSnap]
	// bufs pools the row buffers of the responses rendered through the
	// table, so a Server's responses reuse theirs.
	bufs sync.Pool

	mu      sync.Mutex // serializes fills; guards used and scratch
	used    int        // bytes filled in the last chunk
	scratch []byte
}

// cellSnap is one published state of a termTable. A fill writes only
// into bytes no published slot points at, then stores the slot. It
// stores into the slots array in place, which snapshots share until the
// table grows, and it writes into the last chunk's free bytes in place;
// a new chunk or a grown slots array is published as a new snapshot.
// So a reader on an older snapshot can load a slot pointing into a chunk
// its snapshot predates: that is a miss, and fill answers it from the
// latest snapshot.
type cellSnap struct {
	slots  []atomic.Uint64 // by TermID: chunk+1 | offset | length; 0 = not rendered
	chunks [][]byte
}

// A slot packs chunk index + 1 in its top 24 bits, the cell's offset in
// the chunk in the next cellOffBits and its length in the low cellLenBits.
// A cell longer than a chunk gets a chunk of its own, at offset 0.
const (
	cellOffBits    = 14
	cellLenBits    = 26
	cellChunkBytes = 1 << cellOffBits
	cellMaxChunks  = 1<<(64-cellOffBits-cellLenBits) - 1
)

func newTermTable(dict *rdf.Dictionary, render func([]byte, rdf.Term) []byte) *termTable {
	t := &termTable{dict: dict, render: render}
	t.snap.Store(&cellSnap{})
	return t
}

// cell returns id's cell if s has it.
func (s *cellSnap) cell(id rdf.TermID) ([]byte, bool) {
	if int(id) >= len(s.slots) {
		return nil, false
	}
	v := s.slots[id].Load()
	ci := int(v>>(cellOffBits+cellLenBits)) - 1
	if ci < 0 || ci >= len(s.chunks) {
		return nil, false
	}
	off, n := int(v>>cellLenBits)&(cellChunkBytes-1), int(v&(1<<cellLenBits-1))
	return s.chunks[ci][off : off+n : off+n], true
}

// get returns id's rendered cell, rendering it on first use.
func (t *termTable) get(id rdf.TermID) ([]byte, error) {
	if tb, ok := t.snap.Load().cell(id); ok {
		return tb, nil
	}
	return t.fill(id)
}

// fill renders id's cell into the table under the writers' lock. The
// slots array grows to the dictionary's size when id lies past it (an
// Update added terms), by at least an eighth so a stream of fresh terms
// copies it rarely.
func (t *termTable) fill(id rdf.TermID) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.snap.Load()
	if tb, ok := s.cell(id); ok {
		return tb, nil
	}
	term, ok := t.dict.Decode(id)
	if !ok {
		return nil, fmt.Errorf("server: row references unknown term ID %d", id)
	}
	t.scratch = t.render(t.scratch[:0], term)
	n := len(t.scratch)
	if n >= 1<<cellLenBits || len(s.chunks) == cellMaxChunks {
		return slices.Clone(t.scratch), nil // beyond what a slot packs: render per use
	}
	slots, chunks := s.slots, s.chunks
	if int(id) >= len(slots) {
		slots = make([]atomic.Uint64, max(t.dict.Len()+1, len(s.slots)+len(s.slots)/8))
		for i := range s.slots {
			slots[i].Store(s.slots[i].Load())
		}
	}
	if len(chunks) == 0 || t.used+n > len(chunks[len(chunks)-1]) {
		chunks = append(chunks, make([]byte, max(n, cellChunkBytes)))
		t.used = 0
	}
	ci := len(chunks) - 1
	tb := chunks[ci][t.used : t.used+n : t.used+n]
	copy(tb, t.scratch)
	slots[id].Store(uint64(ci+1)<<(cellOffBits+cellLenBits) | uint64(t.used)<<cellLenBits | uint64(n))
	t.used += n
	if len(slots) != len(s.slots) || len(chunks) != len(s.chunks) {
		t.snap.Store(&cellSnap{slots: slots, chunks: chunks})
	}
	return tb, nil
}

// appendTermJSON renders one term exactly as json.Marshal renders its
// jsonTerm (results_json_test.go): fields in declaration order, empty
// Lang/Datatype omitted.
func appendTermJSON(b []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI:
		b = append(b, `{"type":"uri","value":`...)
		b = appendJSONString(b, t.Value)
	case rdf.Blank:
		b = append(b, `{"type":"bnode","value":`...)
		b = appendJSONString(b, t.Value)
	default:
		b = append(b, `{"type":"literal","value":`...)
		b = appendJSONString(b, t.Value)
		if t.Lang != "" {
			b = append(b, `,"xml:lang":`...)
			b = appendJSONString(b, t.Lang)
		}
		if t.Datatype != "" {
			b = append(b, `,"datatype":`...)
			b = appendJSONString(b, t.Datatype)
		}
	}
	return append(b, '}')
}

// jsonSafe marks the ASCII bytes encoding/json leaves unescaped with
// HTML escaping on (its htmlSafeSet): printable characters minus the
// quote, backslash, and the HTML-sensitive <, >, &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	safe['"'] = false
	safe['\\'] = false
	safe['<'] = false
	safe['>'] = false
	safe['&'] = false
	return
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, byte-identical to
// encoding/json's default (HTML-escaping) encoder: \uXXXX for control
// and HTML-sensitive characters, � for invalid UTF-8, and escaped
// U+2028/U+2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// WriteResultsTSV serializes rows in the SPARQL 1.1 Query Results TSV
// Format: a header of '?'-prefixed variable names, then one line per
// binding with terms in N-Triples syntax and empty fields for unbound
// variables, streamed through the same row loop and, like the JSON
// writer, a cell table private to the call.
func WriteResultsTSV(w io.Writer, dict *rdf.Dictionary, vars []string, rows RowSeq) error {
	return writeTSV(w, newTermTable(dict, appendTSVTerm), vars, rows)
}

// writeTSV is WriteResultsTSV rendering terms through cells.
func writeTSV(w io.Writer, cells *termTable, vars []string, rows RowSeq) error {
	rb := cells.buffer()
	defer cells.release(rb)
	head := rb.b[:0]
	for i, name := range vars {
		if i > 0 {
			head = append(head, '\t')
		}
		head = append(append(head, '?'), name...)
	}
	rb.b = append(head, '\n')
	return writeRows(w, rb, rows, func(b []byte, _ int, row engine.Row) ([]byte, error) {
		for i := range vars {
			if i > 0 {
				b = append(b, '\t')
			}
			if i >= len(row) || row[i] == rdf.NoTerm {
				continue
			}
			tb, err := cells.get(row[i])
			if err != nil {
				return b, err
			}
			b = append(b, tb...)
		}
		return append(b, '\n'), nil
	}, "")
}

// appendTSVTerm renders one term as a TSV cell. Term.String applies the
// N-Triples escapes the SPARQL 1.1 TSV format requires inside literals
// (\t, \n, \r, \", \\), so a literal containing a raw tab or newline can
// never shift later columns. IRIs and blank-node labels are rendered
// verbatim by Term.String, though — such control characters are illegal
// there, but a malformed term that smuggled one through the dictionary
// must still not corrupt the table shape, so they are escaped here too.
func appendTSVTerm(b []byte, t rdf.Term) []byte {
	s := t.String()
	if strings.ContainsAny(s, "\t\n\r") {
		s = tsvCellSanitizer.Replace(s)
	}
	return append(b, s...)
}

var tsvCellSanitizer = strings.NewReplacer("\t", `\t`, "\n", `\n`, "\r", `\r`)
