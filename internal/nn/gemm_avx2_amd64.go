package nn

// This file detects AVX2 on amd64 hosts and declares the assembly kernels
// that use it: the GemmNT microkernel, vectorized across independent output
// columns (see gemm_avx2_amd64.s for the bit-identity argument), and the
// vector sigmoid.

//go:noescape
func gemmNTAVX2(a, bt, c []float64, m, k, n int)

//go:noescape
func sigmoidVecAVX2(dst, x []float64) int

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 routes GemmNT and PackedNT products to the AVX2 kernel.
var hasAVX2 = cpuHasAVX2()

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

// cpuHasFMA mirrors math's useFMA gate (HasAVX && HasFMA): the vectorized
// sigmoid replicates math.Exp's FMA code path lane-wise, so it is only
// bit-identical on hosts where scalar math.Exp takes that same path.
func cpuHasFMA() bool {
	_, _, c1, _ := cpuidex(1, 0)
	const avxFMA = 1<<28 | 1<<12
	return c1&avxFMA == avxFMA
}

func init() {
	if hasAVX2 && cpuHasFMA() {
		sigmoidVecArch = sigmoidVecAVX2
	}
}
