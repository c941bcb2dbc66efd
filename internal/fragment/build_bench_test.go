package fragment_test

import (
	"testing"

	"gstored/internal/fragment"
	"gstored/internal/partition"
	"gstored/internal/store"
	"gstored/internal/workload"
)

// BenchmarkBuild splits LUBM(128) into 12 hash fragments, the layout a
// served binary builds at start-up and after every repartition. CI logs
// its ns/op, B/op and allocs/op with no threshold.
func BenchmarkBuild(b *testing.B) {
	st := store.FromGraph(workload.LUBM(workload.LUBMConfig{Universities: 128}))
	a, err := partition.Hash{}.Partition(st, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := fragment.Build(st, a); err != nil {
			b.Fatal(err)
		}
	}
}
