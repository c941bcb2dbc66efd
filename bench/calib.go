package main

import (
	"slices"
	"time"
)

// RefNominalMS is what the calibration reading (see calibReading) was on
// the box this benchmark was defined on. Every time-valued end-to-end
// metric except setup_s is reported as raw × RefNominalMS ÷ (this run's
// reading), i.e. in "milliseconds of a machine on which the kernel takes
// RefNominalMS". The constant is frozen: editing it rescales every
// normalised number ever recorded and silently breaks comparisons across
// commits. If the kernel itself must change, that is a new benchmark and
// the baseline is measured again.
const RefNominalMS = 6.0

// calibSink keeps the kernel's result observable so the compiler cannot
// discard the work.
var calibSink uint64

// calibKernel is fixed, machine-speed-tracking work that imports nothing
// from the repository under test: 40k map inserts, a sort of the keys and
// a burst of small allocations — the same mix of hashing, comparison and
// allocator traffic the engine's hot paths are made of, so that a box
// running slow (shared-tenant steal, frequency drift) slows the kernel
// and the system under test alike. It returns its own wall time.
func calibKernel() time.Duration {
	start := time.Now()
	const n = 40000
	m := make(map[uint64]uint32, 1024)
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		// xorshift64*: deterministic keys, no dependency on math/rand's
		// implementation from one Go release to the next.
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		m[x*0x2545f4914f6cdd1d] = uint32(i)
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var acc uint64
	for i := 0; i < 4000; i++ {
		b := make([]uint64, 4+i%13)
		b[0] = keys[(i*7)%len(keys)]
		acc += b[0] + uint64(len(b))
	}
	calibSink += acc + uint64(m[keys[0]])
	return time.Since(start)
}

// calibReading folds a run's kernel samples — calibPerPass consecutive
// executions after every pass — into the run's machine-speed reading: the
// best execution of each pass, then the median over passes. Best-of-three
// discards what is not machine speed (a garbage collection of the bench
// process landing in one execution, the cache-cold first execution right
// after the server's reply: the first of three read 15-20% above the
// other two); the median over passes tracks the drift of the box through
// the run.
func calibReading(samplesMS []float64) float64 {
	var best []float64
	for i := 0; i+calibPerPass <= len(samplesMS); i += calibPerPass {
		best = append(best, slices.Min(samplesMS[i:i+calibPerPass]))
	}
	return median(best)
}

// normFactor converts a raw duration of a run into nominal-machine time:
// multiply raw values by it.
func normFactor(readingMS float64) float64 {
	if readingMS <= 0 {
		return 1
	}
	return RefNominalMS / readingMS
}
