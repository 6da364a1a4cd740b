package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestAttentionAlphasSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	a := NewAttention("att", 4, 3, rng)
	hs := []Vec{
		{0.5, -0.3, 0.8, 0.1},
		{-0.1, 0.9, 0.2, -0.5},
		{0.4, 0.4, -0.6, 0.7},
	}
	_, c := a.Forward(hs)
	var sum float64
	for _, al := range c.alphas {
		if al < 0 {
			t.Fatalf("negative attention weight %v", al)
		}
		sum += al
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("attention weights sum %v, want 1", sum)
	}
}

func TestAttentionSummaryIsConvexCombination(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	a := NewAttention("att", 2, 3, rng)
	hs := []Vec{{1, 0}, {0, 1}}
	out, _ := a.Forward(hs)
	// Output must lie in the convex hull: both coords in [0,1] and sum 1.
	if out[0] < 0 || out[0] > 1 || out[1] < 0 || out[1] > 1 {
		t.Fatalf("summary %v outside hull", out)
	}
	if math.Abs(out[0]+out[1]-1) > 1e-12 {
		t.Fatalf("summary coords sum %v, want 1", out[0]+out[1])
	}
}

func TestAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a := NewAttention("att", 4, 3, rng)
	hs := []Vec{
		{0.5, -0.3, 0.8, 0.1},
		{-0.1, 0.9, 0.2, -0.5},
		{0.4, 0.4, -0.6, 0.7},
	}
	target := Vec{0.2, -0.1, 0.3, 0.05}
	loss := func() float64 {
		out, _ := a.Forward(hs)
		var l float64
		for i := range out {
			li, _ := MSELoss(out[i], target[i])
			l += li
		}
		return l
	}
	run := func() {
		out, cache := a.Forward(hs)
		d := NewVec(len(out))
		for i := range out {
			_, d[i] = MSELoss(out[i], target[i])
		}
		a.Backward(cache, d)
	}
	checkParamGrads(t, a.Params(), loss, run, 1e-4)
}

func TestAttentionInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	a := NewAttention("att", 3, 2, rng)
	hs := []Vec{
		{0.5, -0.3, 0.8},
		{-0.1, 0.9, 0.2},
	}
	loss := func() float64 {
		out, _ := a.Forward(hs)
		var l float64
		for _, v := range out {
			l += 0.5 * v * v
		}
		return l
	}
	AllocGrads(a.Params()...)
	out, cache := a.Forward(hs)
	dhs := a.Backward(cache, Copy(out))
	const eps = 1e-5
	for ti := range hs {
		for i := range hs[ti] {
			orig := hs[ti][i]
			hs[ti][i] = orig + eps
			up := loss()
			hs[ti][i] = orig - eps
			down := loss()
			hs[ti][i] = orig
			want := (up - down) / (2 * eps)
			if math.Abs(dhs[ti][i]-want) > 1e-6 {
				t.Fatalf("dhs[%d][%d] = %.8f, numeric %.8f", ti, i, dhs[ti][i], want)
			}
		}
	}
}

func TestAttentionSingleStep(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	a := NewAttention("att", 3, 2, rng)
	hs := []Vec{{1, 2, 3}}
	out, c := a.Forward(hs)
	if math.Abs(c.alphas[0]-1) > 1e-12 {
		t.Fatalf("single-step alpha %v, want 1", c.alphas[0])
	}
	for i := range out {
		if out[i] != hs[0][i] {
			t.Fatalf("single-step summary %v, want input %v", out, hs[0])
		}
	}
}
