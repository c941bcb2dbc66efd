package store

import (
	"slices"
	"testing"

	"gstored/internal/rdf"
)

// TestBatcherDoublesToRowBatch: a Batcher flushes at 1, 2, 4, … rows up
// to RowBatch, then every RowBatch rows, and its last rows on Flush; each
// batch holds the rows in the order they were added, whatever width the
// pooled buffers last served. A row begun and not added is not sent.
func TestBatcherDoublesToRowBatch(t *testing.T) {
	for _, width := range []int{3, 1, 5, 0} {
		var sizes []int
		next := 0
		b := NewBatcher(width, func(rows [][]rdf.TermID) bool {
			sizes = append(sizes, len(rows))
			for _, r := range rows {
				want := make([]rdf.TermID, width)
				for j := range want {
					want[j] = rdf.TermID(next*width + j + 1)
				}
				if !slices.Equal(r, want) || r == nil {
					t.Fatalf("width %d: row %d is %v, want %v", width, next, r, want)
				}
				next++
			}
			return true
		})
		for i := range 1000 {
			abandoned := b.Next()
			for j := range abandoned {
				abandoned[j] = ^rdf.TermID(0)
			}
			row := b.Next()
			for j := range row {
				row[j] = rdf.TermID(i*width + j + 1)
			}
			if !b.Add() {
				t.Fatal("the sink accepts every batch")
			}
		}
		b.Flush()
		b.Release()
		want := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 256, 233}
		if !slices.Equal(sizes, want) || next != 1000 {
			t.Errorf("width %d: batches of %v (%d rows), want %v", width, sizes, next, want)
		}
	}
}
