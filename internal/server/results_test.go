package server

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gstored/internal/engine"
	"gstored/internal/rdf"
)

// countingFlusher records every Write and Flush a serializer makes: an
// http.Flusher, as a response writer is.
type countingFlusher struct {
	bytes.Buffer
	writes  [][]byte
	flushes int
}

func (c *countingFlusher) Write(p []byte) (int, error) {
	c.writes = append(c.writes, slices.Clone(p))
	return c.Buffer.Write(p)
}

func (c *countingFlusher) Flush() { c.flushes++ }

// TestWriteRowsBatchesWrites pins how rows leave writeRows: the bytes of
// the reference serialization, the first row in a Write of its own (a
// streaming response commits with it), then at most one Write per 64 KiB
// of rows and per flushEveryRows rows, with the flush cadence unchanged.
func TestWriteRowsBatchesWrites(t *testing.T) {
	dict := rdf.NewDictionary()
	ids := make([]rdf.TermID, 300)
	for i := range ids {
		ids[i] = dict.Encode(rdf.NewIRI(fmt.Sprintf("http://example.org/entity/%d", i)))
	}
	const n = 20000
	rows := make([]engine.Row, n)
	for i := range rows {
		rows[i] = engine.Row{ids[i%len(ids)], ids[(i*7)%len(ids)]}
	}
	vars := []string{"x", "y"}

	jsonWant, err := referenceResultsJSON(dict, vars, rows)
	if err != nil {
		t.Fatal(err)
	}
	jsonOne, err := referenceResultsJSON(dict, vars, rows[:1])
	if err != nil {
		t.Fatal(err)
	}
	jsonHead, jsonTail := len(`{"head":{"vars":["x","y"]},"results":{"bindings":[`), len("]}}\n")
	tsvWant := []byte("?x\t?y\n")
	tsvHead := len(tsvWant)
	for _, r := range rows {
		a, _ := dict.Decode(r[0])
		b, _ := dict.Decode(r[1])
		tsvWant = fmt.Appendf(tsvWant, "%s\t%s\n", a, b)
	}
	for _, tc := range []struct {
		name  string
		write func(w *countingFlusher) error
		want  []byte
		first []byte // row one as rendered
	}{
		{"json", func(w *countingFlusher) error {
			return WriteResultsJSON(w, dict, vars, slices.Values(rows))
		}, jsonWant, jsonOne[jsonHead : len(jsonOne)-jsonTail]},
		{"tsv", func(w *countingFlusher) error {
			return WriteResultsTSV(w, dict, vars, slices.Values(rows))
		}, tsvWant, tsvWant[tsvHead : bytes.IndexByte(tsvWant[tsvHead:], '\n')+tsvHead+1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var w countingFlusher
			if err := tc.write(&w); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.Bytes(), tc.want) {
				t.Fatalf("output diverged from the reference (%d bytes, want %d)", w.Len(), len(tc.want))
			}
			if len(w.writes) < 2 || !bytes.Equal(w.writes[1], tc.first) {
				t.Errorf("second Write is not row one alone: want %q", tc.first)
			}
			const batch = 64 << 10
			limit := (len(tc.want)+batch-1)/batch + (n+flushEveryRows-1)/flushEveryRows + 2
			if len(w.writes) > limit {
				t.Errorf("%d Writes for %d bytes and %d rows, want at most %d", len(w.writes), len(tc.want), n, limit)
			}
			if w.flushes != n/flushEveryRows {
				t.Errorf("flushes = %d, want %d", w.flushes, n/flushEveryRows)
			}
		})
	}
}
