package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pathrank/internal/allocpin"
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
// function every element must match bitwise, and with its zmm and ymm
// kernels, which answer a prefix of whole blocks.
type activation struct {
	name     string
	vec      func(dst, x Vec)
	scalar   func(float64) float64
	zmm, ymm func(dst, x []float64) int
}

var activations = []activation{
	{"SigmoidVec", SigmoidVec, Sigmoid, sigmoidVecAVX512, sigmoidVecAVX2},
	{"TanhVec", TanhVec, math.Tanh, tanhVecAVX512, tanhVecAVX2},
}

// hostLanes is the activation width chosen for this host.
var hostLanes = actLanes

// withLanes runs f with actLanes lowered to at most lanes: the in-package
// hook that puts the narrower kernels behind the public entry points.
func withLanes(lanes int, f func()) {
	defer func(saved int) { actLanes = saved }(actLanes)
	actLanes = min(hostLanes, lanes)
	f()
}

// actImpl is one way to run an activation sweep: run answers a prefix of
// x into dst and returns its length, a multiple of block.
type actImpl struct {
	name  string
	block int
	runs  bool // the host can run it
	run   func(dst, x Vec) int
}

// actImpls lists every way to run one activation: the zmm and ymm kernels
// called directly, and the dispatching entry point at each width.
func actImpls(act activation) []actImpl {
	at := func(lanes int) func(dst, x Vec) int {
		return func(dst, x Vec) int {
			withLanes(lanes, func() { act.vec(dst, x) })
			return len(x)
		}
	}
	return []actImpl{
		{"zmm-kernel", 8, hostLanes == 8, func(dst, x Vec) int { return act.zmm(dst, x) }},
		{"ymm-kernel", 4, hostLanes >= 4, func(dst, x Vec) int { return act.ymm(dst, x) }},
		{"zmm", 1, hostLanes == 8, at(8)},
		{"ymm", 1, hostLanes >= 4, at(4)},
		{"scalar", 1, true, at(0)},
	}
}

// logActImpls records which activation widths this host runs, as
// logGemmImpls does for the GEMM kernels: an AVX2-only runner shows its
// zmm entries skipped.
func logActImpls(tb testing.TB) {
	tb.Helper()
	var ran, skipped []string
	for _, im := range actImpls(activations[0]) {
		if im.runs {
			ran = append(ran, im.name)
		} else {
			skipped = append(skipped, im.name)
		}
	}
	tb.Logf("activation widths run: %v; not on this host: %v", ran, skipped)
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

// checkActivation runs im on x, out of place and in place, and requires
// the answered prefix to match scalar bitwise. Where x holds no value a
// kernel may stop at (every |x| below tanh's 0.5·MAXLOG), a kernel must
// answer every whole block.
func checkActivation(t *testing.T, im actImpl, scalar func(float64) float64, x Vec, what string) {
	t.Helper()
	full := true
	for _, xv := range x {
		full = full && math.Abs(xv) < 44
	}
	got := NewVec(len(x))
	n := im.run(got, x)
	in := Copy(x)
	nIn := im.run(in, in) // the fused scorer activates gate matrices in place
	if n%im.block != 0 || n > len(x) || n != nIn || full && n != len(x)/im.block*im.block {
		t.Fatalf("%s %s n=%d: answered %d (in place %d)", im.name, what, len(x), n, nIn)
	}
	for i, xv := range x[:n] {
		want := scalar(xv)
		if !sameFloat(got[i], want) || !sameFloat(in[i], want) {
			t.Fatalf("%s %s n=%d x[%d]=%g: got %.17g (in place %.17g), want %.17g",
				im.name, what, len(x), i, xv, got[i], in[i], want)
		}
	}
}

// TestSigmoidVecMatchesScalar is the bit-identity gate of the vectorized
// activation sweeps, sigmoid and tanh alike, at every width the host runs:
// the zmm and ymm kernels called directly and the dispatching entry point
// capped at zmm, ymm and scalar. Each special value goes in every position
// of a zmm block, a ymm block and a scalar tail (13 = 8+4+1 elements);
// then ordinary magnitudes, mixed blocks that make a sweep hand over to
// the scalar loop, and every length from 1 to 67. Each must equal the
// elementwise scalar function bitwise, also when applied in place.
func TestSigmoidVecMatchesScalar(t *testing.T) {
	logActImpls(t)
	for _, act := range activations {
		t.Run(act.name, func(t *testing.T) {
			for _, im := range actImpls(act) {
				if !im.runs {
					continue
				}
				rng := rand.New(rand.NewSource(9))
				for _, s := range activationSpecials {
					for pos := 0; pos < 13; pos++ {
						x := Vec{0.3, -1.7, 2.5, -0.01, 0.9, -3.2, 1.1, -0.4, 0.7, -2.2, 0.05, 4.5, -0.6}
						x[pos] = s
						checkActivation(t, im, act.scalar, x, "special")
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
						checkActivation(t, im, act.scalar, x, fmt.Sprintf("trial %d", trial))
					}
				}
			}
		})
	}
}

// TestGateEpiloguesMatchUnfused pins the fused gate epilogues to the
// passes they fold, run unfused at the scalar width: SigmoidAdd3 to Add3
// then SigmoidVec, SigmoidAdd3Mul to those then Hadamard, TanhAddLerp to
// AddTo, TanhVec and Lerp. Each runs at every width the host has, on every
// length from 1 to 67 and with special values in random positions.
func TestGateEpiloguesMatchUnfused(t *testing.T) {
	logActImpls(t)
	rng := rand.New(rand.NewSource(13))
	vec := func(n int, special bool) Vec {
		v := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64() * 2
			if special && rng.Intn(8) == 0 {
				v[i] = activationSpecials[rng.Intn(len(activationSpecials))]
			}
		}
		return v
	}
	requireSame := func(what string, lanes int, got, want Vec) {
		t.Helper()
		for i := range want {
			if !sameFloat(got[i], want[i]) {
				t.Fatalf("%s at %d lanes, n=%d: elem %d = %.17g, unfused %.17g",
					what, lanes, len(want), i, got[i], want[i])
			}
		}
	}
	for _, lanes := range []int{8, 4, 0} {
		if lanes > hostLanes {
			continue
		}
		for n := 1; n <= 67; n++ {
			for trial := 0; trial < 3; trial++ {
				a, b, c, m := vec(n, trial == 2), vec(n, false), vec(n, trial > 0), vec(n, false)
				if trial == 1 {
					clear(b) // a special in a or c reaches the sigmoid unrounded
				}
				want := NewVec(n)
				withLanes(0, func() {
					Add3(want, a, b, c)
					SigmoidVec(want, want)
				})
				got := NewVec(n)
				withLanes(lanes, func() { SigmoidAdd3(got, a, b, c) })
				requireSame("SigmoidAdd3", lanes, got, want)
				withLanes(lanes, func() { SigmoidAdd3Mul(got, a, b, c, m) })
				withLanes(0, func() { Hadamard(want, want, m) })
				requireSame("SigmoidAdd3Mul", lanes, got, want)

				x, bias, z, h := vec(n, trial > 0), vec(n, trial == 2), vec(n, false), vec(n, false)
				withLanes(0, func() {
					xb := Copy(x)
					AddTo(xb, bias)
					TanhVec(xb, xb)
					Lerp(want, z, h, xb)
				})
				withLanes(lanes, func() { TanhAddLerp(got, Copy(x), bias, z, h) })
				requireSame("TanhAddLerp", lanes, got, want)
			}
		}
	}
}

// fuzzActivation feeds 13 fuzzer-chosen float64 bit patterns (a zmm
// block, a ymm block and a scalar tail) through vec at every width the
// host runs and requires scalar's bits for each (any NaN matching any
// NaN).
func fuzzActivation(t *testing.T, vec func(dst, x Vec), scalar func(float64) float64, raw []byte) {
	x := NewVec(13)
	for i := range x {
		var w [8]byte
		copy(w[:], raw[min(8*i, len(raw)):])
		x[i] = math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
	}
	for _, lanes := range []int{8, 4, 0} {
		if lanes > hostLanes {
			continue
		}
		got := NewVec(len(x))
		withLanes(lanes, func() { vec(got, x) })
		for i, xv := range x {
			if want := scalar(xv); !sameFloat(got[i], want) {
				t.Fatalf("%d lanes, x[%d] = %#x: got %#x, want %#x",
					lanes, i, math.Float64bits(xv), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
	}
}

// activationSeeds are the fuzz seeds of both activations: raw little-endian
// float64 bits of the branch points, bounds and non-finite values.
func activationSeeds(f *testing.F) {
	raw := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(raw(0.625, math.Copysign(0, -1), 44.014845965556525, 5e-324, -0.3, 1.5, 2, 3, 708, -708, 710, 0.1, -745))
	f.Add(raw(-0.3, 1.5, math.Nextafter(0.625, 0), -20, 0.5, 0.25, -1, 1, 4, -4, 30, -30, 1e-310))
	f.Add(raw(1, 2, 3, 4, 5, 6, 7, math.Inf(1), 9, 10, 11, math.NaN(), 13))
	f.Add([]byte{})
}

// FuzzTanhVec feeds raw float64 bit patterns through TanhVec at every
// width and requires math.Tanh's bits for each.
func FuzzTanhVec(f *testing.F) {
	logActImpls(f)
	activationSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzActivation(t, TanhVec, math.Tanh, raw) })
}

// FuzzSigmoidVec feeds raw float64 bit patterns through SigmoidVec at
// every width and requires Sigmoid's bits for each.
func FuzzSigmoidVec(f *testing.F) {
	logActImpls(f)
	activationSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) { fuzzActivation(t, SigmoidVec, Sigmoid, raw) })
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

// TestGemmNTAllocs pins BenchmarkGemmNT's call at zero allocations: the
// scratch panel comes from its pool.
func TestGemmNTAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	A, B, C := randMat(rng, 256, 32), randMat(rng, 16, 32), NewMat(256, 16)
	allocpin.Pin(t, allocpin.Count{}, func() { GemmNT(C, A, B) })
}

// BenchmarkGemmNT measures the package-level entry point (the widest
// kernel the host runs) on a flat name; TestGemmNTAllocs pins its
// allocations.
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
// at the served gate-block sizes (one row, a depth of 8 rows and one of 32
// rows at hidden 64) for each width the host runs:
// BenchmarkSigmoidVec/<rows>x64/<zmm|ymm|scalar>.
func BenchmarkSigmoidVec(b *testing.B) { benchActivation(b, SigmoidVec) }

func BenchmarkTanhVec(b *testing.B) { benchActivation(b, TanhVec) }

func benchActivation(b *testing.B, vec func(dst, x Vec)) {
	rng := rand.New(rand.NewSource(12))
	for _, rows := range []int{1, 8, 32} {
		x := NewVec(rows * 64)
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		dst := NewVec(len(x))
		for _, w := range []struct {
			name  string
			lanes int
		}{{"zmm", 8}, {"ymm", 4}, {"scalar", 0}} {
			if w.lanes > hostLanes {
				continue
			}
			b.Run(fmt.Sprintf("%dx64/%s", rows, w.name), func(b *testing.B) {
				withLanes(w.lanes, func() {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						vec(dst, x)
					}
				})
			})
		}
	}
}
