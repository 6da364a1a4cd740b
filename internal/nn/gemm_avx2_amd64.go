package nn

import (
	"sync"
)

// This file registers the "avx2" batched backend on amd64 hosts whose CPU
// and OS support AVX2. It vectorizes GemmNT across independent output
// columns (see gemm_avx2_amd64.s for the bit-identity argument).

//go:noescape
func gemmNTAVX2(a, bt, c []float64, m, k, n int)

//go:noescape
func sigmoidVecAVX2(dst, x []float64) int

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

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

// avx2MinRows gates the vector path of the unpacked product: below this
// row count the per-call transpose pack of B costs more than the vector
// arithmetic saves, so a short GemmNT falls back to the blocked tile
// (bit-identical, so mixing backends by shape is safe). A PackedNT operand
// paid for its panel once and has no such gate.
const avx2MinRows = 8

type avx2Kernel struct {
	pool sync.Pool // *[]float64, the Bᵀ panel scratch of unpacked products
}

func (*avx2Kernel) Name() string { return "avx2" }

func (k *avx2Kernel) GemmNT(C, A, B Mat) {
	checkGemm(C, A, B)
	K, N := A.Cols, B.Rows
	if A.Rows < avx2MinRows || N < 4 || K == 0 {
		blockedKernel{}.GemmNT(C, A, B)
		return
	}
	p, _ := k.pool.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	if cap(*p) < K*N {
		*p = make([]float64, K*N)
	}
	bt := (*p)[:K*N]
	transposeInto(bt, B)
	k.gemmNTPanel(C, A, bt)
	k.pool.Put(p)
}

// transposeInto writes B (N x K) into bt as the K x N panel the
// microkernel streams: bt[k*N+j] = B[j,k].
func transposeInto(bt []float64, B Mat) {
	N := B.Rows
	for j := 0; j < N; j++ {
		for kk, v := range B.Row(j) {
			bt[kk*N+j] = v
		}
	}
}

func (*avx2Kernel) packPanel(B Mat) []float64 {
	bt := make([]float64, B.Rows*B.Cols)
	transposeInto(bt, B)
	return bt
}

// gemmNTPanel multiplies against a K x N panel: the first N&^3 columns on
// the microkernel, the rest (all of them when N < 4) as scalar fresh dots
// with the same association.
func (*avx2Kernel) gemmNTPanel(C, A Mat, bt []float64) {
	M, K, N := A.Rows, A.Cols, C.Cols
	nv := N &^ 3
	if nv > 0 {
		gemmNTAVX2(A.Data[:M*K], bt, C.Data[:M*N], M, K, N)
	}
	if nv == N {
		return
	}
	for i := 0; i < M; i++ {
		ai, ci := A.Row(i), C.Row(i)
		for j := nv; j < N; j++ {
			var s float64
			for kk, av := range ai {
				s += av * bt[kk*N+j]
			}
			ci[j] += s
		}
	}
}

func init() {
	if !cpuHasAVX2() {
		return
	}
	if cpuHasFMA() {
		sigmoidVecArch = sigmoidVecAVX2
	}
	k := &avx2Kernel{}
	kernels["avx2"] = k
	panelBackend = k
	// This init runs after gemm.go's (file order), which installed the
	// portable default; the CPU supports the faster backend.
	activeKernel.Store(kernelBox{k})
}
