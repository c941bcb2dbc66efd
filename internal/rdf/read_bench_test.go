package rdf_test

import (
	"bytes"
	"testing"

	"gstored/internal/rdf"
	"gstored/internal/workload"
)

// BenchmarkReadNTriples reads LUBM(32) rendered as N-Triples, the path a
// served binary loads its -data file through. CI logs its ns/op and
// allocs/op with no threshold.
func BenchmarkReadNTriples(b *testing.B) {
	var doc bytes.Buffer
	if err := rdf.WriteNTriples(&doc, workload.LUBM(workload.LUBMConfig{Universities: 32})); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(doc.Len()))
	b.ResetTimer()
	for range b.N {
		if _, err := rdf.ReadNTriples(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}
