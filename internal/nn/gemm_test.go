package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// naiveGemmNT is the oracle of the kernel tests: textbook triple loops
// with the documented accumulation order.
func naiveGemmNT(C, A, B Mat) {
	for i := 0; i < A.Rows; i++ {
		ai, ci := A.Row(i), C.Row(i)
		for j := 0; j < B.Rows; j++ {
			ci[j] += dotRows(B.Row(j), ai)
		}
	}
}

// gemmImpl is one way a C += A·Bᵀ product can run.
type gemmImpl struct {
	name string
	avx2 bool // needs an AVX2 host
	mul  func(C, A, B Mat)
}

// gemmImpls names every implementation, called directly: the portable
// tile, the AVX2 unpacked product (which hands shapes below avx2MinRows
// rows to the tile, so the test shapes cover both sides), the AVX2 packed
// product, and the two public entry points on this host's kernel.
var gemmImpls = []gemmImpl{
	{"tile", false, gemmNTTile},
	{"avx2", true, avx2GemmNT},
	{"avx2-packed", true, func(C, A, B Mat) {
		bt := make([]float64, B.Rows*B.Cols)
		transposeInto(bt, B)
		avx2PanelMulAdd(C, A, bt)
	}},
	{"GemmNT", false, GemmNT},
	{"PackedNT", false, func(C, A, B Mat) { PackNT(B).MulAdd(C, A) }},
}

// requireGemmImplsMatchNaive checks C0 + A·Btᵀ on every implementation the
// host can run against the oracle, bitwise.
func requireGemmImplsMatchNaive(t *testing.T, C0, A, Bt Mat) {
	t.Helper()
	want := cloneMat(C0)
	naiveGemmNT(want, A, Bt)
	for _, im := range gemmImpls {
		if im.avx2 && !hasAVX2 {
			continue
		}
		got := cloneMat(C0)
		im.mul(got, A, Bt)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s %dx%dx%d: elem %d = %.17g, naive %.17g",
					im.name, A.Rows, A.Cols, Bt.Rows, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func randMat(rng *rand.Rand, rows, cols int) Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func cloneMat(m Mat) Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// TestKernelsBitIdentical: every kernel implementation must produce
// bit-identical results to the naive oracle, including accumulation into a
// nonzero C, across shapes that exercise full register tiles, ragged tails,
// and single rows/columns. The AVX2 cases run only on AVX2 hosts.
func TestKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{ // M, K, N
		{1, 1, 1}, {1, 8, 16}, {3, 5, 7}, {4, 16, 16}, {5, 12, 10},
		{8, 32, 16}, {9, 32, 17}, {16, 32, 16}, {33, 24, 20}, {64, 32, 48},
		{12, 1, 16}, {8, 2, 4}, {31, 16, 3}, {1, 64, 64}, {5, 64, 64},
		{7, 10, 6}, {3, 5, 1}, {32, 64, 1},
	}
	for _, sh := range shapes {
		M, K, N := sh[0], sh[1], sh[2]
		A := randMat(rng, M, K)
		Bt := randMat(rng, N, K)
		C0 := randMat(rng, M, N) // nonzero accumulation target
		requireGemmImplsMatchNaive(t, C0, A, Bt)
	}
}

// TestGemmNTMatchesMatVecAdd pins the association the fused scorer relies
// on: one GemmNT row must equal MatVecAdd into the same output.
func TestGemmNTMatchesMatVecAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := NewParam("w", 16, 32)
	for i := range p.W {
		p.W[i] = rng.NormFloat64()
	}
	X := randMat(rng, 24, 32)
	Y := NewMat(24, 16)
	p.MatMulAdd(X, Y)
	for r := 0; r < X.Rows; r++ {
		want := NewVec(16)
		p.MatVecAdd(X.Row(r), want)
		for j := range want {
			if Y.Row(r)[j] != want[j] {
				t.Fatalf("row %d col %d: MatMulAdd %.17g != MatVecAdd %.17g",
					r, j, Y.Row(r)[j], want[j])
			}
		}
	}
}

// TestSigmoidVecMatchesScalar is the bit-identity gate of the vectorized
// sigmoid sweep: across ordinary magnitudes, the exact special values the
// SIMD path must hand back to the scalar loop (non-finite, |x| past Exp's
// underflow/denormal range), signed zeros and length tails, SigmoidVec must
// equal an elementwise scalar Sigmoid loop bitwise.
func TestSigmoidVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 20, -20, 700, -700,
		708, -708, 710, -710, 745, -745, 800, -800, 1e308, -1e308,
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1e-300, -1e-300,
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 15, 16, 33, 64, 67} {
		for trial := 0; trial < 4; trial++ {
			x := NewVec(n)
			for i := range x {
				if trial == 3 && rng.Intn(3) == 0 {
					x[i] = specials[rng.Intn(len(specials))]
				} else {
					x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
				}
			}
			want := NewVec(n)
			for i := range x {
				want[i] = Sigmoid(x[i])
			}
			got := NewVec(n)
			SigmoidVec(got, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d trial=%d x=%g: SigmoidVec %.17g != Sigmoid %.17g",
						n, trial, x[i], got[i], want[i])
				}
			}
			// In-place application must agree too (the fused scorer
			// activates gate matrices in place).
			SigmoidVec(x, x)
			for i := range want {
				if x[i] != want[i] {
					t.Fatalf("n=%d trial=%d: in-place SigmoidVec %.17g != %.17g",
						n, trial, x[i], want[i])
				}
			}
		}
	}
	// NaN propagates.
	out := NewVec(4)
	SigmoidVec(out, Vec{math.NaN(), 0, math.NaN(), -2})
	if !math.IsNaN(out[0]) || !math.IsNaN(out[2]) || out[1] != 0.5 {
		t.Fatalf("NaN handling: got %v", out)
	}
}

func wantPanic(t *testing.T, substr string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", substr)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
			t.Fatalf("panic %q does not contain %q", msg, substr)
		}
	}()
	f()
}

// TestShapePanics pins the unified shape checking across the kernel layer:
// the four hot vector kernels panic with their constant messages (they must
// stay inlinable — see the comment block in mat.go), the batched kernels
// name the offending shapes, and nothing silently truncates.
func TestShapePanics(t *testing.T) {
	p := NewParam("w", 4, 3)
	x3, x4 := NewVec(3), NewVec(4)
	wantPanic(t, "MatVec shape mismatch", func() { p.MatVec(x4, x4) })
	wantPanic(t, "MatVec shape mismatch", func() { p.MatVec(x3, x3) })
	wantPanic(t, "MatVecAdd shape mismatch", func() { p.MatVecAdd(x4, x4) })
	wantPanic(t, "MatTVecAdd shape mismatch", func() { p.MatTVecAdd(x3, x4) })
	wantPanic(t, "AccumOuter shape mismatch", func() { p.AccumOuter(x3, x4) })

	A := NewMat(2, 3)
	wantPanic(t, "GemmNT shape mismatch", func() { GemmNT(NewMat(2, 5), A, NewMat(5, 4)) })
	wantPanic(t, "MatMulAdd shape mismatch", func() { p.MatMulAdd(NewMat(2, 4), NewMat(2, 4)) })
	wantPanic(t, "GemmNT shape mismatch", func() { PackNT(NewMat(5, 4)).MulAdd(NewMat(2, 5), A) })
	wantPanic(t, "out of range", func() { A.View(3) })
}

// FuzzGemm cross-checks every kernel implementation against the naive
// oracle bitwise on fuzzer-chosen shapes (M, K, N in [1, 40]) and a seeded
// value stream.
func FuzzGemm(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(16), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(9), uint8(32), uint8(17), int64(3))
	f.Add(uint8(33), uint8(7), uint8(20), int64(4))
	f.Add(uint8(0), uint8(9), uint8(0), int64(5))  // 1 row, N = 1
	f.Add(uint8(4), uint8(23), uint8(5), int64(6)) // 5 rows, N = 6
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64) {
		M, K, N := int(m%40)+1, int(k%40)+1, int(n%40)+1
		rng := rand.New(rand.NewSource(seed))
		A := randMat(rng, M, K)
		Bt := randMat(rng, N, K)
		C0 := randMat(rng, M, N)
		requireGemmImplsMatchNaive(t, C0, A, Bt)
	})
}

// BenchmarkGemm measures each kernel implementation, and the naive
// oracle, on a tall input-side gate shape (many embedding rows times one
// gate weight, what building the scorer's inference plan multiplies).
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	A := randMat(rng, 256, 32)
	B := randMat(rng, 16, 32)
	C := NewMat(256, 16)
	impls := append([]gemmImpl{{"naive", false, naiveGemmNT}}, gemmImpls...)
	for _, im := range impls {
		if im.avx2 && !hasAVX2 {
			continue
		}
		b.Run(im.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				im.mul(C, A, B)
			}
		})
	}
}

// BenchmarkGemmNT measures the package-level entry point (the AVX2 kernel
// where supported). This is the benchdiff-gated variant: unlike the
// per-implementation sub-benchmarks above it has a flat name, and its
// allocs/op pins the zero-alloc steady state of the scratch-panel pool.
func BenchmarkGemmNT(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	A := randMat(rng, 256, 32)
	B := randMat(rng, 16, 32)
	C := NewMat(256, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GemmNT(C, A, B)
	}
}

// BenchmarkSigmoidVec measures the activation sweep on a gate-matrix-sized
// vector (one fused chunk of one GRU gate).
func BenchmarkSigmoidVec(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	x := NewVec(512)
	for i := range x {
		x[i] = rng.NormFloat64() * 3
	}
	dst := NewVec(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SigmoidVec(dst, x)
	}
}
