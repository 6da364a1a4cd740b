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

// gemmImpl is one way a C += A·Bᵀ product can run: bind takes the
// right-hand operand (and packs it, for the kernels that multiply against
// a prepared panel) and returns the product.
type gemmImpl struct {
	name string
	runs bool // the host can run it
	bind func(B Mat) func(C, A Mat)
}

func unpacked(mul func(C, A, B Mat)) func(B Mat) func(C, A Mat) {
	return func(B Mat) func(C, A Mat) { return func(C, A Mat) { mul(C, A, B) } }
}

func panel(zmm bool) func(B Mat) func(C, A Mat) {
	return func(B Mat) func(C, A Mat) {
		bt := make([]float64, B.Rows*B.Cols)
		transposeInto(bt, B)
		return func(C, A Mat) { avx2PanelMulAdd(C, A, bt, zmm) }
	}
}

// gemmImpls names every implementation, called directly: the portable
// tile; the AVX2 unpacked product (which hands shapes below avx2MinRows
// rows to the tile, so the test shapes cover both sides) and packed panel
// product; the same two with 32-column AVX-512 blocks in front; and the two
// public entry points on this host's kernel.
var gemmImpls = []gemmImpl{
	{"tile", true, unpacked(gemmNTTile)},
	{"avx2", hasAVX2, unpacked(func(C, A, B Mat) { avx2GemmNT(C, A, B, false) })},
	{"avx2-packed", hasAVX2, panel(false)},
	{"avx512", hasAVX512, unpacked(func(C, A, B Mat) { avx2GemmNT(C, A, B, true) })},
	{"avx512-packed", hasAVX512, panel(true)},
	{"GemmNT", true, unpacked(GemmNT)},
	{"PackedNT", true, func(B Mat) func(C, A Mat) { return PackNT(B).MulAdd }},
}

// logGemmImpls records which kernels this host runs: a runner without
// AVX-512 or AVX2 skips those entries, and the log shows it.
func logGemmImpls(tb testing.TB) {
	tb.Helper()
	var ran, skipped []string
	for _, im := range gemmImpls {
		if im.runs {
			ran = append(ran, im.name)
		} else {
			skipped = append(skipped, im.name)
		}
	}
	tb.Logf("GEMM kernels run: %v; not on this host: %v", ran, skipped)
}

// requireGemmImplsMatchNaive checks C0 + A·Btᵀ on every implementation the
// host can run against the oracle, bitwise.
func requireGemmImplsMatchNaive(t *testing.T, C0, A, Bt Mat) {
	t.Helper()
	want := cloneMat(C0)
	naiveGemmNT(want, A, Bt)
	for _, im := range gemmImpls {
		if !im.runs {
			continue
		}
		got := cloneMat(C0)
		im.bind(Bt)(got, A)
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
// and single rows/columns; N of 32 and more with odd M puts whole and
// partial 32-column zmm blocks in front of every ymm and scalar tail. The
// vector cases run only on hosts with the instructions.
func TestKernelsBitIdentical(t *testing.T) {
	logGemmImpls(t)
	rng := rand.New(rand.NewSource(7))
	shapes := [][3]int{ // M, K, N
		{1, 1, 1}, {1, 8, 16}, {3, 5, 7}, {4, 16, 16}, {5, 12, 10},
		{8, 32, 16}, {9, 32, 17}, {16, 32, 16}, {33, 24, 20}, {64, 32, 48},
		{12, 1, 16}, {8, 2, 4}, {31, 16, 3}, {1, 64, 64}, {5, 64, 64},
		{7, 10, 6}, {3, 5, 1}, {32, 64, 1},
		{1, 64, 32}, {9, 20, 32}, {3, 7, 40}, {11, 64, 40}, {1, 1, 64},
		{33, 64, 64}, {5, 64, 96}, {13, 9, 96}, {7, 64, 100}, {31, 3, 100},
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

// activations pairs each vectorized activation sweep with the scalar
// function every element must match bitwise, and with the hook that holds
// its SIMD sweep on hosts that run one.
var activations = []struct {
	name   string
	vec    func(dst, x Vec)
	scalar func(float64) float64
	arch   *func(dst, x Vec) int
}{
	{"SigmoidVec", SigmoidVec, Sigmoid, &sigmoidVecArch},
	{"TanhVec", TanhVec, math.Tanh, &tanhVecArch},
}

// sameFloat is bitwise equality, with every NaN matching every NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// activationSpecials are the values a SIMD sweep must either answer
// exactly or hand back to the scalar loop: signed zeros, subnormals,
// sigmoid's Exp underflow and denormal range, tanh's branch point 0.625
// and its saturation bound 0.5·MAXLOG with their neighbouring floats, and
// the non-finite values.
var activationSpecials = func() []float64 {
	const halfMaxLog = 0.5 * 8.8029691931113054295988e+01
	v := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 20, -20, 700, -700,
		708, -708, 710, -710, 745, -745, 800, -800, 1e308, -1e308,
		5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, c := range []float64{0.625, halfMaxLog} {
		for _, x := range []float64{c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1))} {
			v = append(v, x, -x)
		}
	}
	return v
}()

// TestSigmoidVecMatchesScalar is the bit-identity gate of the vectorized
// activation sweeps, sigmoid and tanh alike: across ordinary magnitudes,
// every special value placed in each lane of a block, mixed blocks that
// make the sweep hand over to the scalar loop, and every length from 1 to
// 67, each sweep must equal its elementwise scalar function bitwise, also
// when applied in place.
func TestSigmoidVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(t *testing.T, vec func(dst, x Vec), scalar func(float64) float64, x Vec, what string) {
		t.Helper()
		got := NewVec(len(x))
		vec(got, x)
		in := Copy(x)
		vec(in, in) // the fused scorer activates gate matrices in place
		for i, xv := range x {
			want := scalar(xv)
			if !sameFloat(got[i], want) || !sameFloat(in[i], want) {
				t.Fatalf("%s n=%d x[%d]=%g: got %.17g (in place %.17g), want %.17g",
					what, len(x), i, xv, got[i], in[i], want)
			}
		}
	}
	for _, act := range activations {
		t.Run(act.name, func(t *testing.T) {
			t.Logf("SIMD sweep on this host: %v", *act.arch != nil)
			for _, s := range activationSpecials {
				for lane := 0; lane < 4; lane++ {
					x := Vec{0.3, -1.7, 2.5, -0.01, 0.9}
					x[lane] = s
					check(t, act.vec, act.scalar, x, "special")
				}
			}
			for n := 1; n <= 67; n++ {
				for trial := 0; trial < 4; trial++ {
					x := NewVec(n)
					for i := range x {
						switch {
						case trial == 3 && rng.Intn(3) == 0:
							x[i] = activationSpecials[rng.Intn(len(activationSpecials))]
						case trial == 2:
							x[i] = (rng.Float64()*2 - 1) * 50
						default:
							x[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
						}
					}
					check(t, act.vec, act.scalar, x, fmt.Sprintf("trial %d", trial))
				}
			}
		})
	}
}

// FuzzTanhVec feeds raw float64 bit patterns through TanhVec, four to a
// SIMD block plus one for the scalar tail, and requires math.Tanh's bits
// for each (any NaN matching any NaN).
func FuzzTanhVec(f *testing.F) {
	f.Logf("TanhVec SIMD sweep on this host: %v", tanhVecArch != nil)
	bits := math.Float64bits
	f.Add(bits(0.625), bits(math.Copysign(0, -1)), bits(44.014845965556525), bits(5e-324))
	f.Add(bits(-0.3), bits(1.5), bits(math.Nextafter(0.625, 0)), bits(-20))
	f.Add(bits(math.Inf(1)), bits(1), bits(2), bits(3))
	f.Fuzz(func(t *testing.T, a, b, c, d uint64) {
		x := Vec{math.Float64frombits(a), math.Float64frombits(b),
			math.Float64frombits(c), math.Float64frombits(d), math.Float64frombits(a)}
		got := NewVec(len(x))
		TanhVec(got, x)
		for i, xv := range x {
			if want := math.Tanh(xv); !sameFloat(got[i], want) {
				t.Fatalf("x[%d] = %#x: TanhVec %#x, math.Tanh %#x",
					i, math.Float64bits(xv), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	})
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
// oracle bitwise on fuzzer-chosen shapes (M, K in [1, 40], N in [1, 100]:
// up to three 32-column blocks and every tail) and a seeded value stream.
func FuzzGemm(f *testing.F) {
	logGemmImpls(f)
	f.Add(uint8(4), uint8(16), uint8(16), int64(1))
	f.Add(uint8(1), uint8(1), uint8(1), int64(2))
	f.Add(uint8(9), uint8(32), uint8(17), int64(3))
	f.Add(uint8(33), uint8(7), uint8(20), int64(4))
	f.Add(uint8(0), uint8(9), uint8(0), int64(5))   // 1 row, N = 1
	f.Add(uint8(4), uint8(23), uint8(5), int64(6))  // 5 rows, N = 6
	f.Add(uint8(2), uint8(39), uint8(63), int64(7)) // 3 rows, N = 64
	f.Add(uint8(6), uint8(11), uint8(99), int64(8)) // 7 rows, N = 100
	f.Fuzz(func(t *testing.T, m, k, n uint8, seed int64) {
		M, K, N := int(m%40)+1, int(k%40)+1, int(n%100)+1
		rng := rand.New(rand.NewSource(seed))
		A := randMat(rng, M, K)
		Bt := randMat(rng, N, K)
		C0 := randMat(rng, M, N)
		requireGemmImplsMatchNaive(t, C0, A, Bt)
	})
}

// BenchmarkGemm measures each kernel implementation, and the naive
// oracle, with the right-hand operand bound (and packed) outside the loop:
// on a tall input-side gate shape (many embedding rows times one gate
// weight, what building the scorer's inference plan multiplies) under
// BenchmarkGemm/<kernel>, and on the served recurrent shape, U·h for M
// parent rows at hidden 64 (K = N = 64), under
// BenchmarkGemm/m<M>_k64_n64/<kernel>, reporting GFLOP/s.
func BenchmarkGemm(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	impls := append([]gemmImpl{{"naive", true, unpacked(naiveGemmNT)}}, gemmImpls...)
	run := func(b *testing.B, M, K, N int) {
		A, B, C := randMat(rng, M, K), randMat(rng, N, K), NewMat(M, N)
		for _, im := range impls {
			if !im.runs {
				continue
			}
			b.Run(im.name, func(b *testing.B) {
				mul := im.bind(B)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mul(C, A)
				}
				b.ReportMetric(2*float64(M*K*N)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
	run(b, 256, 32, 16)
	for _, m := range []int{1, 4, 32} {
		b.Run(fmt.Sprintf("m%d_k64_n64", m), func(b *testing.B) { run(b, m, 64, 64) })
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

// BenchmarkSigmoidVec and BenchmarkTanhVec measure the activation sweeps
// on a gate-matrix-sized vector (one fused chunk of one GRU gate).
func BenchmarkSigmoidVec(b *testing.B) { benchActivation(b, SigmoidVec) }

func BenchmarkTanhVec(b *testing.B) { benchActivation(b, TanhVec) }

func benchActivation(b *testing.B, vec func(dst, x Vec)) {
	rng := rand.New(rand.NewSource(12))
	x := NewVec(512)
	for i := range x {
		x[i] = rng.NormFloat64() * 3
	}
	dst := NewVec(512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vec(dst, x)
	}
}
