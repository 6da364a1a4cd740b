package nn

import "testing"

// Kernel micro-benchmarks documenting the unrolling decision in mat.go:
// axpy-style element-wise kernels win from 4-wide unrolling, dot products
// do not (serial FP dependency chain; see the comment above dotRows).
//
// Each benchmark iteration runs a fixed batch of kernel calls rather than a
// single one. A lone ~50-100ns call is far below the timer's resolution, so
// at -benchtime=1x (one iteration) a single-call benchmark reports
// scheduling noise, not kernel cost — a past
// baseline recorded the unrolled kernel as 2.8x SLOWER than the naive loop
// that way, while a properly amortized run shows it ~1.7x faster. With the
// batch, even a one-iteration run measures tens of microseconds of real
// work. ns/op is therefore per batch of axpyBatch calls; the per-call cost
// is reported as the ns_per_call metric.

const (
	axpyN     = 128  // vector length, matching the hidden-layer shapes
	axpyBatch = 4096 // kernel calls per benchmark iteration (~0.25ms of work)
)

func naiveAxpy(a float64, src, dst Vec) {
	for c := range dst {
		dst[c] += a * src[c]
	}
}

func axpyBench(b *testing.B, kernel func(a float64, src, dst Vec)) {
	b.Helper()
	src := make(Vec, axpyN)
	dst := make(Vec, axpyN)
	for i := range src {
		src[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < axpyBatch; j++ {
			kernel(0.5, src, dst)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*axpyBatch), "ns_per_call")
}

func BenchmarkAxpyUnrolled(b *testing.B) {
	axpyBench(b, axpyUnrolled)
}

func BenchmarkAxpyNaive(b *testing.B) {
	axpyBench(b, naiveAxpy)
}

func BenchmarkDotRows(b *testing.B) {
	x := make(Vec, axpyN)
	row := make(Vec, axpyN)
	for i := range x {
		x[i] = float64(i)
		row[i] = 1.0 / float64(i+1)
	}
	var s float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < axpyBatch; j++ {
			s += dotRows(row, x)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*axpyBatch), "ns_per_call")
	_ = s
}
