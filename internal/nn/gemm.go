package nn

import (
	"fmt"
	"sync"
)

// This file is the batched kernel layer: a packed row-major matrix type and
// the matrix-matrix products that turn per-path MatVec loops into one GEMM
// per scoring batch. The kernels are deliberately order-preserving: every
// output element accumulates its inner products in ascending-k order, the
// same association the scalar dotRows kernel uses, so a fused batched
// forward pass is bit-identical to the per-path path it replaces (see the
// reproducibility note above dotRows in mat.go). What batching buys is not
// a different sum — it is instruction-level parallelism across *independent*
// output elements (a register tile holds many concurrent dot chains) and
// weight-row reuse across the batch, neither of which the per-path kernels
// can have without changing the summation order.

// Mat is a packed row-major matrix: element (i, j) lives at Data[i*Cols+j].
// It is the batch-side operand type of the kernel layer; weights stay in
// Param and are viewed via Param.AsMat without copying.
type Mat struct {
	Rows, Cols int
	Data       Vec // len Rows*Cols
}

// NewMat allocates a zeroed rows x cols matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// Row returns row i as a subslice (no copy).
func (m Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// View returns a matrix sharing m's storage restricted to the first rows
// rows — one step's share of a slab sized for the widest step of a ragged
// batched recurrence.
func (m Mat) View(rows int) Mat {
	if rows < 0 || rows > m.Rows {
		panic(fmt.Sprintf("nn: Mat.View rows %d out of range [0,%d]", rows, m.Rows))
	}
	return Mat{Rows: rows, Cols: m.Cols, Data: m.Data[:rows*m.Cols]}
}

// ZeroRows clears the first rows rows.
func (m Mat) ZeroRows(rows int) {
	d := m.Data[:rows*m.Cols]
	for i := range d {
		d[i] = 0
	}
}

// AsMat views the parameter's weights as a packed matrix (no copy).
func (p *Param) AsMat() Mat { return Mat{Rows: p.Rows, Cols: p.Cols, Data: p.W} }

// GemmNT computes C += A·Bᵀ for A (M x K), B (N x K), C (M x N) — the
// batched MatVecAdd: row i of C accumulates B·a_i. Every element
// accumulates its k-terms in ascending order in a fresh accumulator and
// adds it to C[i,j] once, matching MatVec/MatVecAdd (y[r] += dot(W_r, x)).
// It runs on the vector kernels when init found AVX2 (in zmm blocks where
// it found AVX-512 too) and on the portable 4x2 tile otherwise; all are
// bit-identical.
func GemmNT(C, A, B Mat) {
	checkGemm(C, A, B)
	if hasAVX2 {
		avx2GemmNT(C, A, B, hasAVX512)
		return
	}
	gemmNTTile(C, A, B)
}

// MatMulAdd computes Y += X·Wᵀ for a Rows x Cols parameter: row b of
// Y (len Rows) accumulates W·x_b, the batched form of MatVecAdd over the
// rows of X (each len Cols). Shapes are checked like the vector kernels.
func (p *Param) MatMulAdd(X, Y Mat) {
	if X.Cols != p.Cols || Y.Cols != p.Rows || X.Rows != Y.Rows {
		panic(fmt.Sprintf("nn: MatMulAdd shape mismatch: %s is %dx%d, X=%dx%d Y=%dx%d",
			p.Name, p.Rows, p.Cols, X.Rows, X.Cols, Y.Rows, Y.Cols))
	}
	GemmNT(Y, X, p.AsMat())
}

// PackedNT is a GemmNT right-hand operand fixed ahead of time: a weight
// matrix multiplied against many batches between two changes of its
// values. On an AVX2 host it holds the microkernel's Bᵀ panel, so a
// product pays no per-call repacking and takes any row count on the vector
// kernel; elsewhere it is the operand itself. B is aliased, not copied,
// and must not change while the pack is in use.
type PackedNT struct {
	b     Mat
	panel []float64 // nil without AVX2
}

// PackNT packs B (N x K) for repeated C += A·Bᵀ products.
func PackNT(B Mat) *PackedNT {
	p := &PackedNT{b: B}
	if hasAVX2 {
		p.panel = make([]float64, B.Rows*B.Cols)
		transposeInto(p.panel, B)
	}
	return p
}

// MulAdd computes C += A·Bᵀ, bit-identical to GemmNT(C, A, B).
func (p *PackedNT) MulAdd(C, A Mat) {
	checkGemm(C, A, p.b)
	if p.panel == nil {
		gemmNTTile(C, A, p.b)
		return
	}
	avx2PanelMulAdd(C, A, p.panel, hasAVX512)
}

func checkGemm(C, A, B Mat) {
	if A.Rows != C.Rows || A.Cols != B.Cols || B.Rows != C.Cols {
		panic(fmt.Sprintf("nn: GemmNT shape mismatch: C=%dx%d A=%dx%d B=%dx%d",
			C.Rows, C.Cols, A.Rows, A.Cols, B.Rows, B.Cols))
	}
}

// gemmNTTile is the portable kernel. A 4x2 register tile runs eight
// independent dot chains concurrently — the ILP a single dotRows cannot
// have — while each chain keeps the serial ascending-k order that makes the
// result bit-identical to eight scalar dots.
func gemmNTTile(C, A, B Mat) {
	K := A.Cols
	M, N := A.Rows, B.Rows
	i := 0
	for ; i+3 < M; i += 4 {
		a0 := A.Row(i)[:K]
		a1 := A.Row(i + 1)[:K]
		a2 := A.Row(i + 2)[:K]
		a3 := A.Row(i + 3)[:K]
		c0, c1, c2, c3 := C.Row(i), C.Row(i+1), C.Row(i+2), C.Row(i+3)
		j := 0
		for ; j+1 < N; j += 2 {
			b0 := B.Row(j)[:K]
			b1 := B.Row(j + 1)[:K]
			var s00, s01, s10, s11, s20, s21, s30, s31 float64
			for k := 0; k < K; k++ {
				bv0, bv1 := b0[k], b1[k]
				av0, av1, av2, av3 := a0[k], a1[k], a2[k], a3[k]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
			}
			c0[j] += s00
			c0[j+1] += s01
			c1[j] += s10
			c1[j+1] += s11
			c2[j] += s20
			c2[j+1] += s21
			c3[j] += s30
			c3[j+1] += s31
		}
		for ; j < N; j++ {
			bj := B.Row(j)[:K]
			var s0, s1, s2, s3 float64
			for k := 0; k < K; k++ {
				bv := bj[k]
				s0 += a0[k] * bv
				s1 += a1[k] * bv
				s2 += a2[k] * bv
				s3 += a3[k] * bv
			}
			c0[j] += s0
			c1[j] += s1
			c2[j] += s2
			c3[j] += s3
		}
	}
	for ; i < M; i++ {
		ai, ci := A.Row(i), C.Row(i)
		for j := 0; j < N; j++ {
			ci[j] += dotRows(B.Row(j), ai)
		}
	}
}

// avx2MinRows gates the vector path of the unpacked product: below this
// row count the per-call transpose pack of B costs more than the vector
// arithmetic saves, so a short GemmNT falls back to the tile (bit-identical,
// so mixing kernels by shape is safe). A PackedNT operand paid for its
// panel once and has no such gate.
const avx2MinRows = 8

// panelPool recycles the Bᵀ panel scratch of unpacked AVX2 products.
var panelPool sync.Pool // *[]float64

// avx2GemmNT is GemmNT on an AVX2 host: it transposes B into a pooled panel
// and multiplies against it (zmm blocks first when zmm is set), or takes the
// tile for short or degenerate shapes.
func avx2GemmNT(C, A, B Mat, zmm bool) {
	K, N := A.Cols, B.Rows
	if A.Rows < avx2MinRows || N < 4 || K == 0 {
		gemmNTTile(C, A, B)
		return
	}
	p, _ := panelPool.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	if cap(*p) < K*N {
		*p = make([]float64, K*N)
	}
	bt := (*p)[:K*N]
	transposeInto(bt, B)
	avx2PanelMulAdd(C, A, bt, zmm)
	panelPool.Put(p)
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

// avx2PanelMulAdd multiplies against a K x N panel: with zmm the first
// N&^31 columns in 32-column AVX-512 blocks, then the columns up to N&^3 on
// the AVX2 kernel, the rest (all of them when N < 4) as scalar fresh dots
// with the same association.
func avx2PanelMulAdd(C, A Mat, bt []float64, zmm bool) {
	M, K, N := A.Rows, A.Cols, C.Cols
	a, c := A.Data[:M*K], C.Data[:M*N]
	nz, nv := 0, N&^3
	if zmm && N >= 32 {
		nz = N &^ 31
		gemmNTAVX512(a, bt, c, M, K, N)
	}
	if nv > nz {
		gemmNTAVX2(a, bt, c, M, K, N, nz)
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
