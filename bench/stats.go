package main

import (
	"slices"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of xs by the
// nearest-rank method on a sorted copy; 0 for an empty sample. Nearest
// rank always returns an observed value, so counters reported through it
// stay whole numbers.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(float64(len(s))*p/100 + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median (mean of the two central values for an
// even sample), the estimator every reported p50 uses.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, 0 when b is 0 — per-layer ratios over layers that did no
// work on a workload read 0 rather than NaN (JSON cannot carry NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// FNV-1a, 64-bit. Inlined rather than hash/fnv so a row can be hashed
// cell by cell without allocating a hasher per row.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

func fnvAddString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// addCell folds cell j of a row into the row's hash: cells are joined by
// tabs, an unbound cell is empty.
func addCell(h uint64, j int, cell string) uint64 {
	if j > 0 {
		h = (h ^ '\t') * fnvPrime
	}
	return fnvAddString(h, cell)
}

// rowSet is the order-independent identity of a result: the row count and
// the wrapping sum of the per-row hashes. A sum (not an xor) so that a
// row delivered twice does not cancel itself; together with the count it
// catches a dropped, duplicated or altered row regardless of delivery
// order. A row's hash is FNV-1a over its cells in N-Triples syntax joined
// by tabs — exactly a SPARQL TSV result line.
type rowSet struct {
	Count int
	Sum   uint64
}

func (r *rowSet) add(rowHash uint64) {
	r.Count++
	r.Sum += rowHash
}
