package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pathrank/internal/allocpin"
)

func randSeq(rng *rand.Rand, T, dim int) []Vec {
	xs := make([]Vec, T)
	for t := range xs {
		xs[t] = make(Vec, dim)
		for i := range xs[t] {
			xs[t][i] = rng.NormFloat64() * 0.1
		}
	}
	return xs
}

func deepCopy(vs []Vec) []Vec {
	out := make([]Vec, len(vs))
	for i, v := range vs {
		out[i] = Copy(v)
	}
	return out
}

// TestGRUScratchReuseMatchesFresh verifies that releasing and reusing the
// pooled scratch produces bit-identical activations and gradients across
// repeated passes.
func TestGRUScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := NewGRU("t", 6, 5, rng)
	AllocGrads(g.Params()...)
	xs := randSeq(rng, 7, 6)
	dhs := make([]Vec, 7)
	dhs[6] = make(Vec, 5)
	for i := range dhs[6] {
		dhs[6][i] = rng.NormFloat64()
	}

	hs1, c1 := g.Forward(xs)
	wantHs := deepCopy(hs1)
	wantDxs := deepCopy(g.Backward(c1, dhs))
	wantGrad := Copy(g.Wz.G)
	c1.Release()
	for _, p := range g.Params() {
		p.ZeroGrad()
	}

	for pass := 0; pass < 3; pass++ {
		hs, c := g.Forward(xs)
		for t2 := range hs {
			for i := range hs[t2] {
				if hs[t2][i] != wantHs[t2][i] {
					t.Fatalf("pass %d: hidden state differs at t=%d i=%d", pass, t2, i)
				}
			}
		}
		dxs := g.Backward(c, dhs)
		for t2 := range dxs {
			for i := range dxs[t2] {
				if dxs[t2][i] != wantDxs[t2][i] {
					t.Fatalf("pass %d: input gradient differs at t=%d i=%d", pass, t2, i)
				}
			}
		}
		for i := range g.Wz.G {
			if g.Wz.G[i] != wantGrad[i] {
				t.Fatalf("pass %d: Wz gradient differs at %d", pass, i)
			}
		}
		c.Release()
		for _, p := range g.Params() {
			p.ZeroGrad()
		}
	}
}

// TestLSTMScratchReuseMatchesFresh mirrors the GRU test for the LSTM body.
func TestLSTMScratchReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM("t", 6, 5, rng)
	AllocGrads(l.Params()...)
	xs := randSeq(rng, 7, 6)
	dhs := make([]Vec, 7)
	dhs[6] = make(Vec, 5)
	for i := range dhs[6] {
		dhs[6][i] = rng.NormFloat64()
	}
	hs1, c1 := l.Forward(xs)
	wantLast := Copy(hs1[6])
	wantDx0 := Copy(l.Backward(c1, dhs)[0])
	c1.Release()
	for _, p := range l.Params() {
		p.ZeroGrad()
	}

	hs2, c2 := l.Forward(xs)
	for i := range wantLast {
		if hs2[6][i] != wantLast[i] {
			t.Fatal("LSTM hidden state differs after scratch reuse")
		}
	}
	dx0 := l.Backward(c2, dhs)[0]
	for i := range wantDx0 {
		if dx0[i] != wantDx0[i] {
			t.Fatal("LSTM input gradient differs after scratch reuse")
		}
	}
	c2.Release()
}

// TestGRUForwardBackwardAllocs is the allocation-regression guard for the
// recurrent scratch arena: a full forward+backward step with a released
// cache performs O(1) small allocations (the cache header), not O(T). It
// pins a small body and BenchmarkGRUForwardBackward's paper-scale one (128
// inputs, hidden 32, 20 steps); one warm-up step settles the arena at both.
func TestGRUForwardBackwardAllocs(t *testing.T) {
	for _, c := range []struct {
		in, hidden, steps int
		want              allocpin.Count
	}{
		{16, 12, 10, allocpin.Count{Allocs: 1, Bytes: 160}},
		{128, 32, 20, allocpin.Count{Allocs: 1, Bytes: 160}},
	} {
		t.Run(fmt.Sprintf("%dx%dx%d", c.in, c.hidden, c.steps), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			g := NewGRU("t", c.in, c.hidden, rng)
			AllocGrads(g.Params()...)
			xs := randSeq(rng, c.steps, c.in)
			dhs := make([]Vec, c.steps)
			allocpin.Pin(t, c.want, func() {
				hs, cache := g.Forward(xs)
				dhs[c.steps-1] = hs[c.steps-1]
				g.Backward(cache, dhs)
				cache.Release()
			})
		})
	}
}

// TestArenaSettlesInOnePass: a pass that outgrows the slab leaves a slab
// that holds the whole pass, so a fresh arena settles in one warm-up pass
// and an identical second pass allocates nothing. The pass grows the slab
// twice after the first one.
func TestArenaSettlesInOnePass(t *testing.T) {
	var a arena
	slabs := 0
	allocpin.Pin(t, allocpin.Count{}, func() {
		for _, n := range []int{1024, 2048, 4096} {
			before := len(a.buf)
			a.vec(n)
			if len(a.buf) != before {
				slabs++
			}
		}
		a.reset()
	})
	if slabs != 3 {
		t.Fatalf("the two passes made %d slabs, want the first pass's 3", slabs)
	}
}

// TestArenaGrowthKeepsVectors checks that vectors handed out before a slab
// grows stay valid and zero-initialized semantics hold.
func TestArenaGrowthKeepsVectors(t *testing.T) {
	var a arena
	v1 := a.vec(4)
	copy(v1, []float64{1, 2, 3, 4})
	// Force growth well past the initial slab.
	for i := 0; i < 64; i++ {
		v := a.vec(257)
		for _, x := range v {
			if x != 0 {
				t.Fatal("arena vec not zeroed")
			}
		}
	}
	if v1[0] != 1 || v1[3] != 4 {
		t.Fatal("vector from old slab corrupted by arena growth")
	}
	if math.IsNaN(v1[2]) {
		t.Fatal("unexpected NaN")
	}
}
