package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// kernelsUnderTest returns every registered backend, so the bit-identity
// sweeps automatically cover arch-specific kernels (e.g. "avx2") on hosts
// that register them.
func kernelsUnderTest() []Kernel {
	ks := make([]Kernel, 0, len(kernels))
	for _, k := range kernels {
		ks = append(ks, k)
	}
	return ks
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

// packedUnder returns C0 + A·Btᵀ computed through a PackedNT operand with
// backend k active — the product the fused scorer's inference plan runs.
func packedUnder(t testing.TB, k Kernel, C0, A, Bt Mat) Mat {
	t.Helper()
	orig := KernelName()
	if err := SetKernel(k.Name()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()
	got := cloneMat(C0)
	PackNT(Bt).MulAdd(got, A)
	return got
}

// TestKernelsBitIdentical is the contract of the kernel registry: every
// backend must produce bit-identical results to the naive reference on
// GemmNT and on the packed-operand product, including accumulation into a
// nonzero C, across shapes that exercise full register tiles, ragged tails,
// and single rows/columns.
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

		wantNT := cloneMat(C0)
		naiveKernel{}.GemmNT(wantNT, A, Bt)

		for _, k := range kernelsUnderTest() {
			gotNT := cloneMat(C0)
			k.GemmNT(gotNT, A, Bt)
			for i := range wantNT.Data {
				if gotNT.Data[i] != wantNT.Data[i] {
					t.Fatalf("%s.GemmNT %dx%dx%d: elem %d = %.17g, naive %.17g",
						k.Name(), M, K, N, i, gotNT.Data[i], wantNT.Data[i])
				}
			}
			gotP := packedUnder(t, k, C0, A, Bt)
			for i := range wantNT.Data {
				if gotP.Data[i] != wantNT.Data[i] {
					t.Fatalf("%s packed %dx%dx%d: elem %d = %.17g, naive %.17g",
						k.Name(), M, K, N, i, gotP.Data[i], wantNT.Data[i])
				}
			}
		}
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

// TestSetKernel covers the selection registry and its error path.
func TestSetKernel(t *testing.T) {
	orig := KernelName()
	defer func() {
		if err := SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()
	for name := range kernels {
		if err := SetKernel(name); err != nil {
			t.Fatal(err)
		}
		if KernelName() != name {
			t.Fatalf("SetKernel(%q) left active kernel %q", name, KernelName())
		}
	}
	err := SetKernel("no-such-backend")
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("unknown kernel error %v does not list registered backends", err)
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

// FuzzGemm cross-checks every registered backend — GemmNT and the
// packed-operand product — against the naive oracle bitwise on
// fuzzer-chosen shapes (M, K, N in [1, 40]) and a seeded value stream.
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

		wantNT := cloneMat(C0)
		naiveKernel{}.GemmNT(wantNT, A, Bt)

		for _, kr := range kernelsUnderTest() {
			gotNT := cloneMat(C0)
			kr.GemmNT(gotNT, A, Bt)
			for i := range wantNT.Data {
				if gotNT.Data[i] != wantNT.Data[i] {
					t.Fatalf("%s.GemmNT %dx%dx%d elem %d: %.17g != %.17g",
						kr.Name(), M, K, N, i, gotNT.Data[i], wantNT.Data[i])
				}
			}
			gotP := packedUnder(t, kr, C0, A, Bt)
			for i := range wantNT.Data {
				if gotP.Data[i] != wantNT.Data[i] {
					t.Fatalf("%s packed %dx%dx%d elem %d: %.17g != %.17g",
						kr.Name(), M, K, N, i, gotP.Data[i], wantNT.Data[i])
				}
			}
		}
	})
}

// BenchmarkGemm measures GemmNT on a tall input-side gate shape (many
// embedding rows times one gate weight, what building the scorer's
// inference plan multiplies) for each backend.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	A := randMat(rng, 256, 32)
	B := randMat(rng, 16, 32)
	C := NewMat(256, 16)
	for _, k := range kernelsUnderTest() {
		b.Run(k.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.GemmNT(C, A, B)
			}
		})
	}
}

// BenchmarkGemmNT measures the package-level entry point (whatever backend
// is active — avx2 where supported). This is the benchdiff-gated variant:
// unlike the per-backend sub-benchmarks above it has a flat name, and its
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
