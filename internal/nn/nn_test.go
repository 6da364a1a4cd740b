package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSigmoidProperties(t *testing.T) {
	if s := Sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", s)
	}
	if s := Sigmoid(100); s <= 0.999 {
		t.Fatalf("Sigmoid(100) = %v, want ~1", s)
	}
	if s := Sigmoid(-100); s >= 0.001 {
		t.Fatalf("Sigmoid(-100) = %v, want ~0", s)
	}
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := Sigmoid(x)
		// In range, monotone symmetric: σ(-x) = 1-σ(x).
		return s >= 0 && s <= 1 && math.Abs(Sigmoid(-x)-(1-s)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVecOps(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{4, 5, 6}
	if d := Dot(a, b); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
	y := Copy(a)
	Axpy(2, b, y)
	want := Vec{9, 12, 15}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
	h := NewVec(3)
	Hadamard(h, a, b)
	if h[0] != 4 || h[1] != 10 || h[2] != 18 {
		t.Fatalf("Hadamard = %v", h)
	}

	// The row operations against their scalar expressions, bitwise, over
	// lengths 1-67 so every vector block and scalar tail runs, into a
	// fresh vector and in place (dst aliasing the first operand).
	rng := rand.New(rand.NewSource(3))
	rowOps := []struct {
		name string
		run  func(dst, x, y, z Vec)
		elem func(d, x, y, z float64) float64 // d: dst's value before
	}{
		{"AddTo", func(dst, x, _, _ Vec) { AddTo(dst, x) },
			func(d, x, _, _ float64) float64 { return d + x }},
		{"Add3", Add3, func(_, x, y, z float64) float64 { return x + y + z }},
		{"Hadamard", func(dst, x, y, _ Vec) { Hadamard(dst, x, y) },
			func(_, x, y, _ float64) float64 { return x * y }},
		{"Lerp", Lerp, func(_, z, a, b float64) float64 { return (1-z)*a + z*b }},
	}
	for n := 1; n <= 67; n++ {
		d, x, y, z := randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)
		for _, op := range rowOps {
			got, in := Copy(d), Copy(x)
			op.run(got, x, y, z)
			op.run(in, in, y, z)
			for i := range got {
				if want := op.elem(d[i], x[i], y[i], z[i]); got[i] != want {
					t.Fatalf("%s n=%d elem %d: %.17g, want %.17g", op.name, n, i, got[i], want)
				}
				if want := op.elem(x[i], x[i], y[i], z[i]); in[i] != want {
					t.Fatalf("%s in place n=%d elem %d: %.17g, want %.17g", op.name, n, i, in[i], want)
				}
			}
		}
	}
}

func randVec(rng *rand.Rand, n int) Vec {
	v := NewVec(n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestMatVecAndTranspose(t *testing.T) {
	p := NewParam("w", 2, 3)
	copy(p.W, []float64{1, 2, 3, 4, 5, 6})
	x := Vec{1, 1, 1}
	y := NewVec(2)
	p.MatVec(x, y)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v, want [6 15]", y)
	}
	dx := NewVec(3)
	p.MatTVecAdd(Vec{1, 1}, dx)
	if dx[0] != 5 || dx[1] != 7 || dx[2] != 9 {
		t.Fatalf("MatTVecAdd = %v, want [5 7 9]", dx)
	}
}

func TestMatVecPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	p := NewParam("w", 2, 3)
	p.MatVec(NewVec(2), NewVec(2))
}

func TestAccumOuter(t *testing.T) {
	p := NewParam("w", 2, 2)
	AllocGrads(p)
	p.AccumOuter(Vec{1, 2}, Vec{3, 4})
	want := []float64{3, 4, 6, 8}
	for i := range want {
		if p.G[i] != want[i] {
			t.Fatalf("AccumOuter grad = %v, want %v", p.G, want)
		}
	}
}

func TestClipGrad(t *testing.T) {
	p, q := NewParam("w", 1, 2), NewParam("q", 1, 2)
	AllocGrads(p, q)
	p.G[0], p.G[1] = 3, 4 // norm 5
	pre := ClipGrad([]*Param{p}, 1)
	if math.Abs(pre-5) > 1e-12 {
		t.Fatalf("pre-clip norm %v, want 5", pre)
	}
	if n := GradNorm([]*Param{p}); math.Abs(n-1) > 1e-9 {
		t.Fatalf("post-clip norm %v, want 1", n)
	}
	// No-op when under the bound.
	q.G[0] = 0.1
	ClipGrad([]*Param{q}, 1)
	if q.G[0] != 0.1 {
		t.Fatal("clip should not rescale small gradients")
	}
}

func TestLosses(t *testing.T) {
	l, g := MSELoss(2, 1)
	if l != 0.5 || g != 1 {
		t.Fatalf("MSE(2,1) = %v,%v want 0.5,1", l, g)
	}
}

// numGrad computes a central finite difference of f at p.W[i].
func numGrad(p *Param, i int, f func() float64) float64 {
	const eps = 1e-5
	orig := p.W[i]
	p.W[i] = orig + eps
	up := f()
	p.W[i] = orig - eps
	down := f()
	p.W[i] = orig
	return (up - down) / (2 * eps)
}

func checkParamGrads(t *testing.T, params []*Param, f func() float64, run func(), tol float64) {
	t.Helper()
	AllocGrads(params...)
	for _, p := range params {
		p.ZeroGrad()
	}
	run()
	for _, p := range params {
		n := len(p.W)
		stride := 1
		if n > 12 {
			stride = n / 12
		}
		for i := 0; i < n; i += stride {
			want := numGrad(p, i, f)
			got := p.G[i]
			scale := math.Max(1, math.Abs(want))
			if math.Abs(got-want)/scale > tol {
				t.Fatalf("%s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, got, want)
			}
		}
	}
}

func TestDenseGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("fc", 4, 3, rng)
	x := Vec{0.3, -0.2, 0.5, 0.9}
	target := Vec{0.1, 0.4, -0.3}
	loss := func() float64 {
		out, _ := d.Forward(x)
		var l float64
		for i := range out {
			li, _ := MSELoss(out[i], target[i])
			l += li
		}
		return l
	}
	run := func() {
		out, cache := d.Forward(x)
		dOut := NewVec(len(out))
		for i := range out {
			_, dOut[i] = MSELoss(out[i], target[i])
		}
		d.Backward(cache, dOut)
	}
	checkParamGrads(t, d.Params(), loss, run, 1e-4)
}

func TestDenseInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDense("fc", 3, 2, rng)
	AllocGrads(d.Params()...)
	x := Vec{0.2, -0.4, 0.7}
	loss := func() float64 {
		out, _ := d.Forward(x)
		l0, _ := MSELoss(out[0], 0.5)
		l1, _ := MSELoss(out[1], -0.1)
		return l0 + l1
	}
	out, cache := d.Forward(x)
	dOut := NewVec(2)
	_, dOut[0] = MSELoss(out[0], 0.5)
	_, dOut[1] = MSELoss(out[1], -0.1)
	dx := d.Backward(cache, dOut)
	const eps = 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		up := loss()
		x[i] = orig - eps
		down := loss()
		x[i] = orig
		want := (up - down) / (2 * eps)
		if math.Abs(dx[i]-want) > 1e-6 {
			t.Fatalf("dx[%d] = %.8f, numeric %.8f", i, dx[i], want)
		}
	}
}

// gruLoss runs the GRU over a fixed sequence and sums squared final hidden
// state against a target, exercising every gate in the backward pass.
func gruSetup(seed int64) (*GRU, []Vec, Vec) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGRU("gru", 3, 4, rng)
	xs := []Vec{
		{0.5, -0.3, 0.8},
		{-0.1, 0.9, 0.2},
		{0.4, 0.4, -0.6},
	}
	target := Vec{0.2, -0.1, 0.3, 0.05}
	return g, xs, target
}

func TestGRUGradCheck(t *testing.T) {
	g, xs, target := gruSetup(11)
	loss := func() float64 {
		hs, _ := g.Forward(xs)
		last := hs[len(hs)-1]
		var l float64
		for i := range last {
			li, _ := MSELoss(last[i], target[i])
			l += li
		}
		return l
	}
	run := func() {
		hs, cache := g.Forward(xs)
		last := hs[len(hs)-1]
		dhs := make([]Vec, len(hs))
		d := NewVec(len(last))
		for i := range last {
			_, d[i] = MSELoss(last[i], target[i])
		}
		dhs[len(hs)-1] = d
		g.Backward(cache, dhs)
	}
	checkParamGrads(t, g.Params(), loss, run, 1e-4)
}

func TestGRUGradCheckAllSteps(t *testing.T) {
	// Gradient flowing into every step's hidden state (mean pooling).
	g, xs, _ := gruSetup(12)
	loss := func() float64 {
		hs, _ := g.Forward(xs)
		var l float64
		for _, h := range hs {
			for _, v := range h {
				l += 0.5 * v * v
			}
		}
		return l
	}
	run := func() {
		hs, cache := g.Forward(xs)
		dhs := make([]Vec, len(hs))
		for t := range hs {
			dhs[t] = Copy(hs[t])
		}
		g.Backward(cache, dhs)
	}
	checkParamGrads(t, g.Params(), loss, run, 1e-4)
}

func TestGRUInputGradCheck(t *testing.T) {
	g, xs, target := gruSetup(13)
	AllocGrads(g.Params()...)
	loss := func() float64 {
		hs, _ := g.Forward(xs)
		last := hs[len(hs)-1]
		var l float64
		for i := range last {
			li, _ := MSELoss(last[i], target[i])
			l += li
		}
		return l
	}
	hs, cache := g.Forward(xs)
	last := hs[len(hs)-1]
	dhs := make([]Vec, len(hs))
	d := NewVec(len(last))
	for i := range last {
		_, d[i] = MSELoss(last[i], target[i])
	}
	dhs[len(hs)-1] = d
	dxs := g.Backward(cache, dhs)
	const eps = 1e-5
	for ti := range xs {
		for i := range xs[ti] {
			orig := xs[ti][i]
			xs[ti][i] = orig + eps
			up := loss()
			xs[ti][i] = orig - eps
			down := loss()
			xs[ti][i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(dxs[ti][i]-want) > 1e-6 {
				t.Fatalf("dxs[%d][%d] = %.8f, numeric %.8f", ti, i, dxs[ti][i], want)
			}
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLSTM("lstm", 3, 4, rng)
	xs := []Vec{
		{0.5, -0.3, 0.8},
		{-0.1, 0.9, 0.2},
	}
	target := Vec{0.2, -0.1, 0.3, 0.05}
	loss := func() float64 {
		hs, _ := l.Forward(xs)
		last := hs[len(hs)-1]
		var sum float64
		for i := range last {
			li, _ := MSELoss(last[i], target[i])
			sum += li
		}
		return sum
	}
	run := func() {
		hs, cache := l.Forward(xs)
		last := hs[len(hs)-1]
		dhs := make([]Vec, len(hs))
		d := NewVec(len(last))
		for i := range last {
			_, d[i] = MSELoss(last[i], target[i])
		}
		dhs[len(hs)-1] = d
		l.Backward(cache, dhs)
	}
	checkParamGrads(t, l.Params(), loss, run, 1e-4)
}

func TestBiGRUGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewBiGRU("bi", 3, 3, rng)
	xs := []Vec{
		{0.5, -0.3, 0.8},
		{-0.1, 0.9, 0.2},
		{0.7, 0.1, -0.4},
	}
	loss := func() float64 {
		hs, _ := b.Forward(xs)
		last := hs[len(hs)-1]
		var l float64
		for _, v := range last {
			l += 0.5 * v * v
		}
		return l
	}
	run := func() {
		hs, cache := b.Forward(xs)
		dhs := make([]Vec, len(hs))
		dhs[len(hs)-1] = Copy(hs[len(hs)-1])
		b.Backward(cache, dhs)
	}
	checkParamGrads(t, b.Params(), loss, run, 1e-4)
}

func TestBiGRUOutDim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBiGRU("bi", 4, 6, rng)
	if b.OutDim() != 12 {
		t.Fatalf("OutDim = %d, want 12", b.OutDim())
	}
	xs := []Vec{{1, 0, 0, 0}, {0, 1, 0, 0}}
	hs, _ := b.Forward(xs)
	if len(hs) != 2 || len(hs[0]) != 12 {
		t.Fatalf("forward shape %dx%d, want 2x12", len(hs), len(hs[0]))
	}
}

func TestEmbeddingLookupAndGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbedding(10, 4, rng)
	v := Vec{1, 2, 3, 4}
	e.SetRow(3, v)
	got := e.Lookup(3)
	for i := range v {
		if got[i] != v[i] {
			t.Fatalf("Lookup(3) = %v, want %v", got, v)
		}
	}
	AllocGrads(e.Params()...)
	e.AccumGrad(3, Vec{1, 1, 1, 1})
	if e.Table.GradRow(3)[0] != 1 {
		t.Fatal("gradient not accumulated")
	}
	// Frozen embeddings accumulate nothing (PR-A1 behaviour).
	e.Table.Frozen = true
	e.AccumGrad(4, Vec{1, 1, 1, 1})
	if e.Table.GradRow(4)[0] != 0 {
		t.Fatal("frozen embedding accumulated a gradient")
	}
}

func TestFrozenParamNotUpdatedByOptimizers(t *testing.T) {
	p := NewParam("w", 1, 1)
	AllocGrads(p)
	p.W[0] = 1
	p.G[0] = 5
	p.Frozen = true
	NewAdam(0.1, []*Param{p}).Step()
	if p.W[0] != 1 {
		t.Errorf("Adam updated a frozen param")
	}
	if p.G[0] != 0 {
		t.Errorf("Adam left gradient on a frozen param")
	}
}

// TestOptimizersConvergeOnQuadratic trains w to minimize 0.5*(w-3)^2.
func TestOptimizersConvergeOnQuadratic(t *testing.T) {
	p := NewParam("w", 1, 1)
	AllocGrads(p)
	opt := NewAdam(0.1, []*Param{p})
	for i := 0; i < 500; i++ {
		p.G[0] = p.W[0] - 3
		opt.Step()
	}
	if math.Abs(p.W[0]-3) > 0.05 {
		t.Errorf("Adam: w = %v after 500 steps, want ~3", p.W[0])
	}
}

func TestGRULearnsToCountSteps(t *testing.T) {
	// A sanity end-to-end check: regress sequence length (scaled) from a
	// constant input. The GRU must use its recurrence to solve this.
	rng := rand.New(rand.NewSource(42))
	g := NewGRU("gru", 1, 8, rng)
	head := NewDense("head", 8, 1, rng)
	params := append(g.Params(), head.Params()...)
	AllocGrads(params...)
	opt := NewAdam(0.01, params)

	sample := func(T int) ([]Vec, float64) {
		xs := make([]Vec, T)
		for i := range xs {
			xs[i] = Vec{1}
		}
		return xs, float64(T) / 10.0
	}
	var lastLoss float64
	for epoch := 0; epoch < 300; epoch++ {
		lastLoss = 0
		for T := 2; T <= 8; T++ {
			xs, target := sample(T)
			hs, gc := g.Forward(xs)
			out, dc := head.Forward(hs[len(hs)-1])
			l, grad := MSELoss(out[0], target)
			lastLoss += l
			dh := head.Backward(dc, Vec{grad})
			dhs := make([]Vec, len(hs))
			dhs[len(hs)-1] = dh
			g.Backward(gc, dhs)
			ClipGrad(params, 5)
			opt.Step()
		}
		_ = rng
	}
	if lastLoss > 0.05 {
		t.Fatalf("GRU failed to learn step counting: final loss %.4f", lastLoss)
	}
}

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d1 := NewDense("fc", 4, 3, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, d1.Params()); err != nil {
		t.Fatalf("SaveParams: %v", err)
	}
	d2 := NewDense("fc", 4, 3, rand.New(rand.NewSource(99)))
	if err := UnmarshalParams(buf.Bytes(), d2.Params()); err != nil {
		t.Fatalf("UnmarshalParams: %v", err)
	}
	for i := range d1.W.W {
		if d1.W.W[i] != d2.W.W[i] {
			t.Fatal("weights differ after round trip")
		}
	}
}

func TestLoadParamsRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d1 := NewDense("fc", 4, 3, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, d1.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewDense("fc", 5, 3, rng) // wrong shape
	if err := UnmarshalParams(buf.Bytes(), other.Params()); err == nil {
		t.Fatal("UnmarshalParams should reject shape mismatch")
	}
}
