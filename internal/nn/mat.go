// Package nn is a small, dependency-free neural-network library sufficient
// to train PathRank end to end: embedding lookups, GRU/LSTM recurrent cells
// with backpropagation through time, dense layers, the MSE loss and the
// Adam optimizer. Computation is float64 on flat slices;
// training is sample-at-a-time, which matches variable-length path
// sequences and keeps the implementation auditable.
package nn

import (
	"math"
	"math/rand"
)

// Vec is a dense vector.
type Vec = []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Copy returns a copy of v.
func Copy(v Vec) Vec { return append(Vec(nil), v...) }

// Dot returns the inner product of a and b. Lengths must match.
func Dot(a, b Vec) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y Vec) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v Vec) {
	for i := range v {
		v[i] *= alpha
	}
}

// The row operations below run on the AVX2 row kernels where init found
// AVX2 (rows_avx2_amd64.s), lane-exact against the Go loops they fall back
// to, so the per-path reference, training and the fused scorer take the
// same lanes.

// AddTo computes dst += src in place over src's length.
func AddTo(dst, src Vec) {
	if len(dst) < len(src) {
		panic("nn: AddTo length mismatch")
	}
	if hasAVX2 {
		addToAVX2(dst, src)
		return
	}
	for i := range src {
		dst[i] += src[i]
	}
}

// Add3 computes dst[i] = a[i] + b[i] + c[i], summed left to right. Lengths
// must match.
func Add3(dst, a, b, c Vec) {
	if len(a) != len(dst) || len(b) != len(dst) || len(c) != len(dst) {
		panic("nn: Add3 length mismatch")
	}
	if hasAVX2 {
		add3AVX2(dst, a, b, c)
		return
	}
	for i := range dst {
		dst[i] = a[i] + b[i] + c[i]
	}
}

// Hadamard computes dst[i] = a[i]*b[i] over a's length.
func Hadamard(dst, a, b Vec) {
	if len(dst) < len(a) || len(b) < len(a) {
		panic("nn: Hadamard length mismatch")
	}
	if hasAVX2 {
		hadamardAVX2(dst, a, b)
		return
	}
	for i := range a {
		dst[i] = a[i] * b[i]
	}
}

// Lerp computes dst[i] = (1-z[i])*a[i] + z[i]*b[i], the GRU state update
// h = (1-z)⊙h_{t-1} + z⊙ĥ. Lengths must match.
func Lerp(dst, z, a, b Vec) {
	if len(z) != len(dst) || len(a) != len(dst) || len(b) != len(dst) {
		panic("nn: Lerp length mismatch")
	}
	if hasAVX2 {
		lerpAVX2(dst, z, a, b)
		return
	}
	for i := range dst {
		dst[i] = (1-z[i])*a[i] + z[i]*b[i]
	}
}

// Param is a trainable tensor with its gradient accumulator; the
// optimizer's state lives in the optimizer (Adam). A Param with Rows>0 is
// a Rows x Cols matrix stored row-major; a bias vector has Rows == 1.
type Param struct {
	Name string
	Rows int
	Cols int
	W    Vec // weights, len Rows*Cols
	G    Vec // gradient accumulator, same shape; nil until AllocGrads

	// Frozen parameters accumulate no updates (PR-A1 freezes the
	// embedding matrix B; PR-A2 trains it).
	Frozen bool
}

// NewParam allocates a rows x cols parameter initialized to zero. It has
// no gradient accumulator: a served model never needs one, and training
// gets them from AllocGrads.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Rows: rows, Cols: cols, W: NewVec(rows * cols)}
}

// AllocGrads gives every parameter that has no gradient accumulator a
// zeroed one. Training calls it before its first backward pass.
func AllocGrads(params ...*Param) {
	for _, p := range params {
		if p.G == nil {
			p.G = NewVec(len(p.W))
		}
	}
}

// InitXavier fills the parameter with Glorot-uniform noise scaled by its
// fan-in and fan-out. A nil rng leaves the weights as they are: layers
// built with one are shaped and zeroed, for weights about to be loaded.
func (p *Param) InitXavier(rng *rand.Rand) {
	if rng == nil {
		return
	}
	limit := math.Sqrt(6.0 / float64(p.Rows+p.Cols))
	for i := range p.W {
		p.W[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Row returns the i-th row of a matrix parameter as a subslice (no copy).
func (p *Param) Row(i int) Vec { return p.W[i*p.Cols : (i+1)*p.Cols] }

// GradRow returns the i-th row of the gradient as a subslice (no copy).
func (p *Param) GradRow(i int) Vec { return p.G[i*p.Cols : (i+1)*p.Cols] }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// NumParams returns the number of scalar weights.
func (p *Param) NumParams() int { return len(p.W) }

// The four matrix kernels below are the inner loops of every forward and
// backward pass. The element-wise kernels (MatTVecAdd, AccumOuter) are
// unrolled 4-wide with slicing that lets the compiler elide bounds checks —
// measured ~1.6x on this shape. The dot-product kernels deliberately keep
// the plain range loop: a dot has a serial floating-point dependency chain,
// so single-accumulator unrolling cannot add instruction-level parallelism
// (it only adds bounds checks and measured slower), and multi-accumulator
// unrolling would change the summation order and with it every trained
// metric. Bitwise reproducibility of the paper tables wins.
//
// All four check their operand shapes with a single length compare before
// the loop (verified free in the axpy/dot benches): a wrong-shaped call
// must panic with the offending shapes, never truncate into silently wrong
// numbers.

// The shape panics below are constant strings on purpose: even a call to a
// noinline fmt helper costs ~60 points of inline budget, pushing these
// kernels past the compiler's limit, and losing their inlining into
// GRU.Forward/LSTM.Forward costs ~1.3x on the scoring hot path (measured on
// BenchmarkScoreBatchPerPath). A constant panic keeps every kernel
// inlinable — verify with `go build -gcflags=-m` when touching these — and
// still names the kernel that was misused; the batched kernels in gemm.go
// are per-batch calls, so they keep the richer fmt messages.

// dotRows returns Σ row[c]*x[c]. Lengths must match; the re-slice after
// the check hoists the bounds check out of the loop.
func dotRows(row, x Vec) float64 {
	if len(row) != len(x) {
		panic("nn: dotRows length mismatch")
	}
	row = row[:len(x)]
	var s float64
	for c, xv := range x {
		s += row[c] * xv
	}
	return s
}

// axpyUnrolled computes dst[c] += a*src[c]. Lengths must match.
func axpyUnrolled(a float64, src, dst Vec) {
	if len(dst) != len(src) {
		panic("nn: axpy length mismatch")
	}
	n := len(src)
	dst = dst[:n]
	c := 0
	for ; c+3 < n; c += 4 {
		s := src[c : c+4 : c+4]
		d := dst[c : c+4 : c+4]
		d[0] += a * s[0]
		d[1] += a * s[1]
		d[2] += a * s[2]
		d[3] += a * s[3]
	}
	for ; c < n; c++ {
		dst[c] += a * src[c]
	}
}

// MatVec computes y = W*x for a Rows x Cols parameter, writing into y
// (len Rows). x must have length Cols.
func (p *Param) MatVec(x, y Vec) {
	if len(x) != p.Cols || len(y) != p.Rows {
		panic("nn: MatVec shape mismatch")
	}
	cols := p.Cols
	for r := 0; r < p.Rows; r++ {
		y[r] = dotRows(p.W[r*cols:(r+1)*cols], x)
	}
}

// MatVecAdd computes y += W*x.
func (p *Param) MatVecAdd(x, y Vec) {
	if len(x) != p.Cols || len(y) != p.Rows {
		panic("nn: MatVecAdd shape mismatch")
	}
	cols := p.Cols
	for r := 0; r < p.Rows; r++ {
		y[r] += dotRows(p.W[r*cols:(r+1)*cols], x)
	}
}

// MatTVecAdd computes x += Wᵀ*dy, propagating a gradient through MatVec.
func (p *Param) MatTVecAdd(dy, x Vec) {
	if len(dy) != p.Rows || len(x) != p.Cols {
		panic("nn: MatTVecAdd shape mismatch")
	}
	cols := p.Cols
	for r := 0; r < p.Rows; r++ {
		d := dy[r]
		if d == 0 {
			continue
		}
		axpyUnrolled(d, p.W[r*cols:(r+1)*cols], x)
	}
}

// AccumOuter accumulates G += dy ⊗ x, the weight gradient of y = W*x.
func (p *Param) AccumOuter(dy, x Vec) {
	if len(dy) != p.Rows || len(x) != p.Cols {
		panic("nn: AccumOuter shape mismatch")
	}
	cols := p.Cols
	for r := 0; r < p.Rows; r++ {
		d := dy[r]
		if d == 0 {
			continue
		}
		axpyUnrolled(d, x, p.G[r*cols:(r+1)*cols])
	}
}

// GradNorm returns the Euclidean norm of the concatenated gradients.
func GradNorm(params []*Param) float64 {
	var s float64
	for _, p := range params {
		for _, g := range p.G {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// ClipGrad rescales all gradients so their global norm is at most maxNorm.
// It returns the pre-clip norm.
func ClipGrad(params []*Param, maxNorm float64) float64 {
	norm := GradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.G {
				p.G[i] *= scale
			}
		}
	}
	return norm
}

// Sigmoid is the logistic function. Both branches feed Exp the same value
// -|x| (for x >= 0, -|x| == -x; for x < 0, -|x| == x), so hoisting the call
// above the branch is bit-identical to the classic two-call form while
// emitting a single Exp call site.
func Sigmoid(x float64) float64 {
	z := math.Exp(-math.Abs(x))
	if x >= 0 {
		return 1 / (1 + z)
	}
	return z / (1 + z)
}

// The activation sweeps below run at actLanes, the host's widest
// activation kernel (gemm_avx2_amd64.go): zmm blocks, then a ymm block,
// then the scalar loop. Every kernel vectorizes across elements, running
// each lane through exactly the scalar operation sequence (see
// exp_avx2_amd64.s), and stops at the first block holding a value the
// scalar function must answer, so every width gives the same bits.

// SigmoidVec applies Sigmoid elementwise, writing into dst (dst may alias
// x).
func SigmoidVec(dst, x Vec) {
	if len(dst) < len(x) {
		panic("nn: SigmoidVec length mismatch")
	}
	i := 0
	if actLanes == 8 {
		i = sigmoidVecAVX512(dst, x)
	}
	if actLanes >= 4 {
		i += sigmoidVecAVX2(dst[i:], x[i:])
	}
	for ; i < len(x); i++ {
		dst[i] = Sigmoid(x[i])
	}
}

// TanhVec applies math.Tanh elementwise, writing into dst (dst may alias
// x).
func TanhVec(dst, x Vec) {
	if len(dst) < len(x) {
		panic("nn: TanhVec length mismatch")
	}
	i := 0
	if actLanes == 8 {
		i = tanhVecAVX512(dst, x)
	}
	if actLanes >= 4 {
		i += tanhVecAVX2(dst[i:], x[i:])
	}
	for ; i < len(x); i++ {
		dst[i] = math.Tanh(x[i])
	}
}

// The gate epilogues below fold a recurrent step's elementwise passes into
// its activation sweep. On zmm hosts a kernel sweeps the blocks of eight,
// each lane running the unfused passes' operations in their order; what it
// leaves (a tail, or everything from a block it stops at) and everything on
// other hosts runs the unfused passes themselves. Either way the bits are
// those of the passes they fold.

// SigmoidAdd3 computes dst[i] = Sigmoid(a[i]+b[i]+c[i]): Add3, then
// SigmoidVec. Lengths must match; dst may alias a, b or c.
func SigmoidAdd3(dst, a, b, c Vec) {
	if len(a) != len(dst) || len(b) != len(dst) || len(c) != len(dst) {
		panic("nn: SigmoidAdd3 length mismatch")
	}
	sigmoidAdd3(dst, a, b, c, nil)
}

// SigmoidAdd3Mul computes dst[i] = Sigmoid(a[i]+b[i]+c[i]) * m[i]: Add3,
// SigmoidVec, then Hadamard by m — the GRU's r⊙h_{t-1} straight from the
// reset gate's pre-activation parts. Lengths must match; dst may alias a, b
// or c, not m.
func SigmoidAdd3Mul(dst, a, b, c, m Vec) {
	if len(a) != len(dst) || len(b) != len(dst) || len(c) != len(dst) || len(m) != len(dst) {
		panic("nn: SigmoidAdd3Mul length mismatch")
	}
	sigmoidAdd3(dst, a, b, c, m)
}

func sigmoidAdd3(dst, a, b, c, m Vec) {
	i := 0
	if actLanes == 8 {
		if i = sigmoidAdd3AVX512(dst, a, b, c, m); i == len(dst) {
			return
		}
	}
	dst = dst[i:]
	Add3(dst, a[i:], b[i:], c[i:])
	SigmoidVec(dst, dst)
	if m != nil {
		Hadamard(dst, dst, m[i:])
	}
}

// TanhAddLerp computes dst[i] = (1-z[i])*h[i] + z[i]*math.Tanh(x[i]+bias[i]):
// AddTo(x, bias), TanhVec, then Lerp(dst, z, h, x) — the GRU's candidate
// activation and state update. x is scratch: the elements the unfused
// passes answer end up holding their tanh. Lengths must match, and dst
// must not alias x, z or h.
func TanhAddLerp(dst, x, bias, z, h Vec) {
	if len(x) != len(dst) || len(bias) != len(dst) || len(z) != len(dst) || len(h) != len(dst) {
		panic("nn: TanhAddLerp length mismatch")
	}
	i := 0
	if actLanes == 8 {
		if i = tanhAddLerpAVX512(dst, x, bias, z, h); i == len(dst) {
			return
		}
	}
	x = x[i:]
	AddTo(x, bias[i:])
	TanhVec(x, x)
	Lerp(dst[i:], z[i:], h[i:], x)
}
