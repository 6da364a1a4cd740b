package nn

// This file makes the one CPUID/XCR0 choice of kernels on amd64 hosts and
// declares the assembly that runs them: the GemmNT panel product in zmm
// 32-column blocks where AVX-512 is there and ymm blocks where AVX2 is
// (gemm_avx2_amd64.s, with the bit-identity argument), the elementwise row
// kernels of the recurrent step (rows_avx2_amd64.s), and the sigmoid and
// tanh sweeps and gate epilogues built on math.Exp's FMA sequence, eight
// lanes wide where AVX-512 is there and four where AVX2 is
// (exp_avx2_amd64.s). Every kernel runs each SIMD lane through exactly the
// scalar operation sequence, so which one a host takes never changes a
// result.

//go:noescape
func gemmNTAVX512(a, bt, c []float64, m, k, n int)

//go:noescape
func gemmNTAVX2(a, bt, c []float64, m, k, n, j0 int)

//go:noescape
func sigmoidVecAVX2(dst, x []float64) int

//go:noescape
func tanhVecAVX2(dst, x []float64) int

//go:noescape
func sigmoidVecAVX512(dst, x []float64) int

//go:noescape
func tanhVecAVX512(dst, x []float64) int

//go:noescape
func sigmoidAdd3AVX512(dst, a, b, c, m []float64) int

//go:noescape
func tanhAddLerpAVX512(dst, x, bias, z, h []float64) int

//go:noescape
func addToAVX2(dst, src []float64)

//go:noescape
func add3AVX2(dst, a, b, c []float64)

//go:noescape
func hadamardAVX2(dst, a, b []float64)

//go:noescape
func lerpAVX2(dst, z, a, b []float64)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

var (
	// hasAVX2 routes GemmNT and PackedNT products and the row kernels
	// (AddTo, Add3, Hadamard, Lerp) to the AVX2 assembly.
	hasAVX2 = cpuHasAVX2()
	// hasAVX512 runs a panel product's 32-column blocks on zmm registers.
	hasAVX512 = hasAVX2 && cpuHasAVX512()
	// actLanes is the width of the activation kernels (SigmoidVec,
	// TanhVec and the gate epilogues): 8 where AVX-512F and FMA are there,
	// 4 on AVX2+FMA hosts, 0 (the scalar loop) elsewhere. Tests lower it to
	// cover the narrower widths on one host; nothing else writes it.
	actLanes = activationLanes()
)

// cpuHasAVX2 reports AVX2 with OS-managed YMM state: OSXSAVE+AVX in
// CPUID.1:ECX, XMM+YMM enabled in XCR0, and AVX2 in CPUID.7.0:EBX.
func cpuHasAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsaveAVX = 1<<27 | 1<<28
	if c1&osxsaveAVX != osxsaveAVX {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}

// cpuHasAVX512 reports AVX512F (CPUID.7.0:EBX bit 16) with the OS saving
// the opmask and all 512-bit register state: XCR0 bits 1, 2 and 5-7.
// Callers check cpuHasAVX2 first, which establishes OSXSAVE.
func cpuHasAVX512() bool {
	if lo, _ := xgetbv0(); lo&0xE6 != 0xE6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<16) != 0
}

// cpuHasFMA mirrors math's useFMA gate (HasAVX && HasFMA): the vectorized
// sigmoid and tanh replicate math.Exp's FMA code path lane-wise, so they
// are only bit-identical on hosts where scalar math.Exp takes that same
// path.
func cpuHasFMA() bool {
	_, _, c1, _ := cpuidex(1, 0)
	const avxFMA = 1<<28 | 1<<12
	return c1&avxFMA == avxFMA
}

func activationLanes() int {
	switch {
	case hasAVX512 && cpuHasFMA():
		return 8
	case hasAVX2 && cpuHasFMA():
		return 4
	}
	return 0
}
