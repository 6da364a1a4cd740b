package nn

import (
	"math/rand"
	"sync"
)

// GRU is a gated recurrent unit processing a sequence of input vectors into
// a sequence of hidden states:
//
//	z_t = σ(Wz·x_t + Uz·h_{t-1} + bz)       update gate
//	r_t = σ(Wr·x_t + Ur·h_{t-1} + br)       reset gate
//	ĥ_t = tanh(Wh·x_t + Uh·(r_t⊙h_{t-1}) + bh)
//	h_t = (1-z_t)⊙h_{t-1} + z_t⊙ĥ_t
//
// This is the recurrent body of PathRank: the sequence of vertex embeddings
// of a candidate path is folded into hidden states whose summary feeds the
// regression head.
type GRU struct {
	In, Hidden int

	Wz, Uz, Wr, Ur, Wh, Uh *Param
	Bz, Br, Bh             *Param

	// scratch pools per-pass workspaces so per-timestep gate vectors and
	// caches are reused across samples. sync.Pool keeps concurrent
	// forward passes (parallel Evaluate/Rank) isolated.
	scratch sync.Pool
}

// NewGRU returns a GRU with Xavier-initialized weights.
func NewGRU(name string, in, hidden int, rng *rand.Rand) *GRU {
	g := &GRU{
		In: in, Hidden: hidden,
		Wz: NewParam(name+".Wz", hidden, in),
		Uz: NewParam(name+".Uz", hidden, hidden),
		Wr: NewParam(name+".Wr", hidden, in),
		Ur: NewParam(name+".Ur", hidden, hidden),
		Wh: NewParam(name+".Wh", hidden, in),
		Uh: NewParam(name+".Uh", hidden, hidden),
		Bz: NewParam(name+".bz", 1, hidden),
		Br: NewParam(name+".br", 1, hidden),
		Bh: NewParam(name+".bh", 1, hidden),
	}
	for _, p := range []*Param{g.Wz, g.Uz, g.Wr, g.Ur, g.Wh, g.Uh} {
		p.InitXavier(rng)
	}
	return g
}

// gruScratch is the reusable workspace of one forward(+backward) pass.
type gruScratch struct {
	ar                        arena
	hs, zs, rs, hhats, rhPrev []Vec
	dxs                       []Vec
}

// GRUCache stores per-step activations for backpropagation through time.
// Caches returned by Forward borrow memory from the GRU's scratch pool;
// call Release when the cache (and any slices obtained from it or from
// Backward) is no longer needed, so the memory is reused by the next pass.
// Releasing is optional — an unreleased cache is simply collected by the GC.
type GRUCache struct {
	xs     []Vec // inputs
	hs     []Vec // hidden states, hs[t] = h_t (hs has len T; h_{-1} is zero)
	zs     []Vec
	rs     []Vec
	hhats  []Vec
	rhPrev []Vec // r_t ⊙ h_{t-1}

	owner *GRU
	ws    *gruScratch
}

// Len returns the sequence length of the cached forward pass.
func (c *GRUCache) Len() int { return len(c.xs) }

// Hidden returns the hidden state at step t.
func (c *GRUCache) Hidden(t int) Vec { return c.hs[t] }

// Release returns the cache's scratch memory to the GRU's pool. The cache,
// the hidden states returned by Forward and the gradients returned by
// Backward must not be used afterwards.
func (c *GRUCache) Release() {
	if c.ws == nil {
		return
	}
	c.owner.scratch.Put(c.ws)
	c.ws = nil
}

// Forward runs the GRU over xs and returns the hidden-state sequence and a
// cache for Backward. The initial hidden state is zero.
func (g *GRU) Forward(xs []Vec) ([]Vec, *GRUCache) {
	ws, _ := g.scratch.Get().(*gruScratch)
	if ws == nil {
		ws = new(gruScratch)
	}
	ws.ar.reset()
	T := len(xs)
	H := g.Hidden
	ws.hs = growVecSlice(ws.hs, T)
	ws.zs = growVecSlice(ws.zs, T)
	ws.rs = growVecSlice(ws.rs, T)
	ws.hhats = growVecSlice(ws.hhats, T)
	ws.rhPrev = growVecSlice(ws.rhPrev, T)
	c := &GRUCache{
		xs: xs, hs: ws.hs, zs: ws.zs, rs: ws.rs, hhats: ws.hhats,
		rhPrev: ws.rhPrev, owner: g, ws: ws,
	}
	hPrev := ws.ar.vec(H)
	for t := 0; t < T; t++ {
		z := ws.ar.vec(H)
		r := ws.ar.vec(H)
		hh := ws.ar.vec(H)
		g.Wz.MatVec(xs[t], z)
		g.Uz.MatVecAdd(hPrev, z)
		AddTo(z, g.Bz.W)
		SigmoidVec(z, z)

		g.Wr.MatVec(xs[t], r)
		g.Ur.MatVecAdd(hPrev, r)
		AddTo(r, g.Br.W)
		SigmoidVec(r, r)

		rh := ws.ar.vec(H)
		Hadamard(rh, r, hPrev)
		g.Wh.MatVec(xs[t], hh)
		g.Uh.MatVecAdd(rh, hh)
		AddTo(hh, g.Bh.W)
		TanhVec(hh, hh)

		h := ws.ar.vec(H)
		Lerp(h, z, hPrev, hh)
		c.zs[t], c.rs[t], c.hhats[t], c.rhPrev[t], c.hs[t] = z, r, hh, rh, h
		hPrev = h
	}
	return c.hs, c
}

// Backward propagates the hidden-state gradients dhs (one Vec per step; nil
// entries mean zero gradient at that step), accumulates parameter gradients,
// and returns gradients with respect to the inputs.
func (g *GRU) Backward(c *GRUCache, dhs []Vec) []Vec {
	T := c.Len()
	H := g.Hidden
	ws := c.ws
	if ws == nil { // released cache: fall back to a private workspace
		ws = new(gruScratch)
	}
	ws.dxs = growVecSlice(ws.dxs, T)
	dxs := ws.dxs
	ar := &ws.ar
	// Per-step temporaries, reused across all T steps.
	dh := ar.vec(H)
	dhNext := ar.vec(H) // gradient flowing back from step t+1 into h_t
	dhPrev := ar.vec(H)
	dz := ar.vec(H)
	dhh := ar.vec(H)
	dhhPre := ar.vec(H)
	dRH := ar.vec(H)
	dr := ar.vec(H)
	drPre := ar.vec(H)
	dzPre := ar.vec(H)
	hZero := ar.vec(H)

	for t := T - 1; t >= 0; t-- {
		copy(dh, dhNext)
		if t < len(dhs) && dhs[t] != nil {
			AddTo(dh, dhs[t])
		}
		hPrev := hZero
		if t > 0 {
			hPrev = c.hs[t-1]
		}
		z, r, hh := c.zs[t], c.rs[t], c.hhats[t]

		// h_t = (1-z)*hPrev + z*hh
		for i := 0; i < H; i++ {
			dz[i] = dh[i] * (hh[i] - hPrev[i])
			dhh[i] = dh[i] * z[i]
			dhPrev[i] = dh[i] * (1 - z[i])
		}

		// ĥ = tanh(Wh x + Uh (r⊙hPrev) + bh)
		for i := 0; i < H; i++ {
			dhhPre[i] = dhh[i] * (1 - hh[i]*hh[i])
			dRH[i] = 0
		}
		g.Wh.AccumOuter(dhhPre, c.xs[t])
		g.Uh.AccumOuter(dhhPre, c.rhPrev[t])
		AddTo(g.Bh.G, dhhPre)
		dx := ar.vec(g.In)
		g.Wh.MatTVecAdd(dhhPre, dx)
		g.Uh.MatTVecAdd(dhhPre, dRH)
		for i := 0; i < H; i++ {
			dr[i] = dRH[i] * hPrev[i]
			dhPrev[i] += dRH[i] * r[i]
		}

		// r = σ(Wr x + Ur hPrev + br)
		for i := 0; i < H; i++ {
			drPre[i] = dr[i] * r[i] * (1 - r[i])
		}
		g.Wr.AccumOuter(drPre, c.xs[t])
		g.Ur.AccumOuter(drPre, hPrev)
		AddTo(g.Br.G, drPre)
		g.Wr.MatTVecAdd(drPre, dx)
		g.Ur.MatTVecAdd(drPre, dhPrev)

		// z = σ(Wz x + Uz hPrev + bz)
		for i := 0; i < H; i++ {
			dzPre[i] = dz[i] * z[i] * (1 - z[i])
		}
		g.Wz.AccumOuter(dzPre, c.xs[t])
		g.Uz.AccumOuter(dzPre, hPrev)
		AddTo(g.Bz.G, dzPre)
		g.Wz.MatTVecAdd(dzPre, dx)
		g.Uz.MatTVecAdd(dzPre, dhPrev)

		dxs[t] = dx
		dhNext, dhPrev = dhPrev, dhNext
	}
	return dxs
}

// Params returns the trainable parameters.
func (g *GRU) Params() []*Param {
	return []*Param{g.Wz, g.Uz, g.Wr, g.Ur, g.Wh, g.Uh, g.Bz, g.Br, g.Bh}
}

// BiGRU runs a forward and a backward GRU over the sequence and concatenates
// their hidden states, as in PathRank's architecture sketch.
type BiGRU struct {
	Fwd, Bwd *GRU
}

// NewBiGRU returns a bidirectional GRU; each direction has the given hidden
// size, so the concatenated state has 2*hidden dimensions.
func NewBiGRU(name string, in, hidden int, rng *rand.Rand) *BiGRU {
	return &BiGRU{
		Fwd: NewGRU(name+".fwd", in, hidden, rng),
		Bwd: NewGRU(name+".bwd", in, hidden, rng),
	}
}

// OutDim returns the concatenated hidden dimensionality.
func (b *BiGRU) OutDim() int { return b.Fwd.Hidden + b.Bwd.Hidden }

// BiGRUCache holds both directions' caches.
type BiGRUCache struct {
	fc, bc *GRUCache
	T      int
}

// Release returns both directions' scratch memory to their pools.
func (c *BiGRUCache) Release() {
	c.fc.Release()
	c.bc.Release()
}

// Forward returns per-step concatenated hidden states [h_fwd_t ; h_bwd_t].
func (b *BiGRU) Forward(xs []Vec) ([]Vec, *BiGRUCache) {
	T := len(xs)
	rev := make([]Vec, T)
	for t := 0; t < T; t++ {
		rev[t] = xs[T-1-t]
	}
	hf, fc := b.Fwd.Forward(xs)
	hb, bc := b.Bwd.Forward(rev)
	out := make([]Vec, T)
	for t := 0; t < T; t++ {
		o := NewVec(b.OutDim())
		copy(o, hf[t])
		copy(o[b.Fwd.Hidden:], hb[T-1-t])
		out[t] = o
	}
	return out, &BiGRUCache{fc: fc, bc: bc, T: T}
}

// Backward propagates per-step gradients on the concatenated states and
// returns input gradients.
func (b *BiGRU) Backward(c *BiGRUCache, dhs []Vec) []Vec {
	T := c.T
	df := make([]Vec, T)
	db := make([]Vec, T)
	for t := 0; t < T; t++ {
		if t < len(dhs) && dhs[t] != nil {
			df[t] = Copy(dhs[t][:b.Fwd.Hidden])
			dbv := Copy(dhs[t][b.Fwd.Hidden:])
			db[T-1-t] = dbv
		}
	}
	dxf := b.Fwd.Backward(c.fc, df)
	dxbRev := b.Bwd.Backward(c.bc, db)
	dxs := make([]Vec, T)
	for t := 0; t < T; t++ {
		dx := Copy(dxf[t])
		AddTo(dx, dxbRev[T-1-t])
		dxs[t] = dx
	}
	return dxs
}

// Params returns the trainable parameters of both directions.
func (b *BiGRU) Params() []*Param {
	return append(b.Fwd.Params(), b.Bwd.Params()...)
}
