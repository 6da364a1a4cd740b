package pathrank

import (
	"math"

	"pathrank/internal/nn"
	"pathrank/internal/spath"
)

// This file is the fused batched inference path: one /v2/rank batch becomes
// a handful of GEMMs instead of thousands of per-path dot products.
//
// Candidate paths are packed into a ragged batch sorted by length
// (descending), so at every timestep the still-active sequences form a
// prefix of the batch. Each recurrent gate then runs as one GemmNT across
// the whole active prefix — W·x_t for every path at once — on
// scratch-arena-backed matrices, with no allocations in steady state.
//
// Correctness contract: fused scores are BIT-IDENTICAL to the per-path
// path. The kernels preserve per-element accumulation order (see
// internal/nn/gemm.go), the gate/bias/activation sequence mirrors
// GRU.Forward / LSTM.Forward / Dense.Forward op for op, and summaries
// accumulate hidden states in the same per-path order (ascending t for
// forward directions, descending for the BiGRU backward half, exactly as
// BiGRU.Forward + meanVecs compose). TestScoreBatchFusedMatchesPerPath
// enforces this across every Body kind and path length.

// fusedChunk bounds the paths packed into one fused slab. Chunks are scored
// independently (parallelFor across chunks), so the bound keeps scratch
// slabs modest while still amortizing each weight row across dozens of
// sequences.
const fusedChunk = 32

// fusedWS is the reusable workspace of one fused chunk: the packed-matrix
// arena plus the chunk-local ordering/length bookkeeping.
type fusedWS struct {
	sc     nn.Scratch
	order  []int // chunk-local candidate indices, longest path first
	lens   []int // path length per order entry
	active []int // active[t] = #paths still running at step t
	steps  []nn.Mat
}

// sortByLenDesc orders ws.order/ws.lens by descending length, breaking ties
// by ascending candidate index. Insertion sort: chunks are small (≤
// fusedChunk) and this allocates nothing. Scores are per-path deterministic,
// so the order affects only packing, never results.
func (ws *fusedWS) sortByLenDesc() {
	for i := 1; i < len(ws.order); i++ {
		oi, li := ws.order[i], ws.lens[i]
		j := i - 1
		for j >= 0 && (ws.lens[j] < li || (ws.lens[j] == li && ws.order[j] > oi)) {
			ws.order[j+1], ws.lens[j+1] = ws.order[j], ws.lens[j]
			j--
		}
		ws.order[j+1], ws.lens[j+1] = oi, li
	}
}

// ScoreBatchFused scores the candidates through the batched GEMM kernels
// and returns the raw scores in input order, bit-identical to
// ScoreBatchPerPath. Chunks of fusedChunk paths are scored independently
// (in parallel when workers are available); empty paths score 0, exactly
// like Score.
func (m *Model) ScoreBatchFused(cands []spath.Path) []float64 {
	out := make([]float64, len(cands))
	nchunks := (len(cands) + fusedChunk - 1) / fusedChunk
	parallelFor(nchunks, func(c int) {
		lo := c * fusedChunk
		hi := lo + fusedChunk
		if hi > len(cands) {
			hi = len(cands)
		}
		m.scoreFusedChunk(cands[lo:hi], out[lo:hi])
	})
	return out
}

// scoreFusedChunk packs one chunk of candidates into a ragged batch and
// runs the fused forward pass for the model's body, scattering scores into
// out (indexed like cands).
func (m *Model) scoreFusedChunk(cands []spath.Path, out []float64) {
	ws, _ := m.fusedPool.Get().(*fusedWS)
	if ws == nil {
		ws = new(fusedWS)
	}
	defer m.fusedPool.Put(ws)
	ws.sc.Reset()
	ws.order = ws.order[:0]
	ws.lens = ws.lens[:0]
	for i, p := range cands {
		if len(p.Vertices) > 0 {
			ws.order = append(ws.order, i)
			ws.lens = append(ws.lens, len(p.Vertices))
		}
	}
	if len(ws.order) == 0 {
		return
	}
	ws.sortByLenDesc()
	B := len(ws.order)
	maxT := ws.lens[0]

	// active[t]: paths are sorted longest-first, so the sequences still
	// running at step t are exactly the first active[t] rows.
	ws.active = growInts(ws.active, maxT)
	ptr := B
	for t := 0; t < maxT; t++ {
		for ptr > 0 && ws.lens[ptr-1] <= t {
			ptr--
		}
		ws.active[t] = ptr
	}

	outDim := m.head.W.Cols
	sumH := ws.sc.Mat(B, outDim)
	switch m.cfg.Body {
	case GRUBody:
		m.fusedGRU(m.gru, ws, cands, false, false, sumH, 0)
		m.scaleMeanRows(ws, sumH)
	case BiGRUBody:
		m.fusedGRU(m.bigru.Fwd, ws, cands, false, false, sumH, 0)
		steps := m.fusedGRU(m.bigru.Bwd, ws, cands, true, true, nn.Mat{}, 0)
		// The per-path summary adds the backward half in descending step
		// order (out[t] carries hb[T-1-t]; meanVecs walks t ascending), so
		// the fused accumulation replays the steps backwards.
		off := m.bigru.Fwd.Hidden
		for t := maxT - 1; t >= 0; t-- {
			for b := 0; b < ws.active[t]; b++ {
				row := sumH.Row(b)[off:]
				nn.AddTo(row, steps[t].Row(b))
			}
		}
		m.scaleMeanRows(ws, sumH)
	case LSTMBody:
		m.fusedLSTM(ws, cands, sumH)
		m.scaleMeanRows(ws, sumH)
	case MeanPoolBody:
		X := ws.sc.Mat(B, m.emb.Dim())
		for t := 0; t < maxT; t++ {
			ba := ws.active[t]
			m.gatherEmb(X, ws, cands, t, false, ba)
			for b := 0; b < ba; b++ {
				nn.AddTo(sumH.Row(b), X.Row(b))
			}
		}
		m.scaleMeanRows(ws, sumH)
	case AttnGRUBody:
		steps := m.fusedGRU(m.gru, ws, cands, false, true, nn.Mat{}, 0)
		m.fusedAttention(ws, steps, sumH)
	}

	// Regression head: one GEMM over the batch of summaries, then the same
	// bias add and sigmoid Dense.Forward applies.
	scores := ws.sc.Mat(B, m.head.W.Rows)
	m.head.W.MatMulAdd(sumH, scores)
	for b := 0; b < B; b++ {
		s := scores.Row(b)[0] + m.head.B.W[0]
		out[ws.order[b]] = nn.Sigmoid(s)
	}
}

// scaleMeanRows divides each summary row by its own sequence length —
// the per-row counterpart of meanVecs' final Scale.
func (m *Model) scaleMeanRows(ws *fusedWS, sumH nn.Mat) {
	for b := range ws.order {
		nn.Scale(1/float64(ws.lens[b]), sumH.Row(b))
	}
}

// gatherEmb copies the step-t embedding of every active sequence into the
// first ba rows of X. reversed selects the mirrored timestep (the BiGRU
// backward direction), per sequence length.
func (m *Model) gatherEmb(X nn.Mat, ws *fusedWS, cands []spath.Path, t int, reversed bool, ba int) {
	for b := 0; b < ba; b++ {
		p := cands[ws.order[b]]
		idx := t
		if reversed {
			idx = ws.lens[b] - 1 - t
		}
		copy(X.Row(b), m.emb.Lookup(int(p.Vertices[idx])))
	}
}

// addBiasRows adds the bias vector to the first ba rows.
func addBiasRows(M nn.Mat, bias nn.Vec, ba int) {
	for b := 0; b < ba; b++ {
		nn.AddTo(M.Row(b), bias)
	}
}

// sigmoidRows / tanhRows apply the activation to the first ba rows.
func sigmoidRows(M nn.Mat, ba int) {
	d := M.Data[:ba*M.Cols]
	nn.SigmoidVec(d, d)
}

func tanhRows(M nn.Mat, ba int) {
	d := M.Data[:ba*M.Cols]
	nn.TanhVec(d, d)
}

// packEmbAll packs every (path, timestep) embedding of the chunk into one
// timestep-major matrix: rows [off[t], off[t]+active[t]) hold step t of
// every active sequence, where off[t] = Σ_{s<t} active[s]. Packing the whole
// chunk lets the input-side gate products run as ONE tall GEMM per gate
// instead of maxT small ones — full register tiles, no per-step tails.
func (m *Model) packEmbAll(ws *fusedWS, cands []spath.Path, reversed bool) nn.Mat {
	maxT := ws.lens[0]
	total := 0
	for t := 0; t < maxT; t++ {
		total += ws.active[t]
	}
	X := ws.sc.Mat(total, m.emb.Dim())
	row := 0
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		m.gatherEmb(nn.Mat{Rows: ba, Cols: X.Cols, Data: X.Data[row*X.Cols:]}, ws, cands, t, reversed, ba)
		row += ba
	}
	return X
}

// stepView returns rows [off, off+rows) of M as a matrix view.
func stepView(M nn.Mat, off, rows int) nn.Mat {
	return nn.Mat{Rows: rows, Cols: M.Cols, Data: M.Data[off*M.Cols : (off+rows)*M.Cols]}
}

// fusedGRU runs one GRU direction over the ragged batch. The input-side
// gate products W{z,r,h}·x_t are hoisted into one whole-chunk GEMM per gate
// over the timestep-major embedding pack; the recurrent products U·h_{t-1}
// then accumulate into the per-step slab of that result, mirroring
// GRU.Forward's MatVec → MatVecAdd → bias → activation sequence exactly
// (each gate element is 0 + dotX + dotH + bias in both layouts). When sumH
// has storage, hidden states accumulate into sumH[:, off:off+H] as they are
// produced (the ascending-t half of mean pooling); when keepSteps is set,
// the per-step hidden-state matrices are returned for pooling that needs
// them (BiGRU backward half, attention).
func (m *Model) fusedGRU(g *nn.GRU, ws *fusedWS, cands []spath.Path, reversed, keepSteps bool, sumH nn.Mat, off int) []nn.Mat {
	maxT := ws.lens[0]
	H := g.Hidden
	sc := &ws.sc
	X := m.packEmbAll(ws, cands, reversed)
	XZ := sc.Mat(X.Rows, H)
	XR := sc.Mat(X.Rows, H)
	XH := sc.Mat(X.Rows, H)
	g.Wz.MatMulAdd(X, XZ)
	g.Wr.MatMulAdd(X, XR)
	g.Wh.MatMulAdd(X, XH)
	B := len(ws.order)
	Hp := sc.Mat(B, H) // h_{t-1}; zero initial state
	RH := sc.Mat(B, H)
	var steps []nn.Mat
	if keepSteps {
		ws.steps = growMats(ws.steps, maxT)
		steps = ws.steps
	}
	row := 0
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		Hpv := Hp.View(ba)

		Z := stepView(XZ, row, ba)
		g.Uz.MatMulAdd(Hpv, Z)
		addBiasRows(Z, g.Bz.W, ba)
		sigmoidRows(Z, ba)

		R := stepView(XR, row, ba)
		g.Ur.MatMulAdd(Hpv, R)
		addBiasRows(R, g.Br.W, ba)
		sigmoidRows(R, ba)

		for b := 0; b < ba; b++ {
			nn.Hadamard(RH.Row(b), R.Row(b), Hp.Row(b))
		}
		Hh := stepView(XH, row, ba)
		g.Uh.MatMulAdd(RH.View(ba), Hh)
		addBiasRows(Hh, g.Bh.W, ba)
		tanhRows(Hh, ba)
		row += ba

		var stepM nn.Mat
		if keepSteps {
			stepM = sc.Mat(ba, H)
			steps[t] = stepM
		}
		for b := 0; b < ba; b++ {
			hp, z, hh := Hp.Row(b), Z.Row(b), Hh.Row(b)
			var sum nn.Vec
			if sumH.Data != nil {
				sum = sumH.Row(b)[off : off+H]
			}
			var keep nn.Vec
			if keepSteps {
				keep = stepM.Row(b)
			}
			for i := 0; i < H; i++ {
				h := (1-z[i])*hp[i] + z[i]*hh[i]
				hp[i] = h
				if sum != nil {
					sum[i] += h
				}
				if keep != nil {
					keep[i] = h
				}
			}
		}
	}
	return steps
}

// fusedLSTM mirrors LSTM.Forward over the ragged batch with the same
// input-side hoist as fusedGRU: the four W·x_t products run as whole-chunk
// GEMMs, the recurrent U·h_{t-1} products accumulate per step, and hidden
// states sum into sumH as they are produced.
func (m *Model) fusedLSTM(ws *fusedWS, cands []spath.Path, sumH nn.Mat) {
	l := m.lstm
	B := len(ws.order)
	maxT := ws.lens[0]
	H := l.Hidden
	sc := &ws.sc
	X := m.packEmbAll(ws, cands, false)
	XI := sc.Mat(X.Rows, H)
	XF := sc.Mat(X.Rows, H)
	XO := sc.Mat(X.Rows, H)
	XG := sc.Mat(X.Rows, H)
	l.Wi.MatMulAdd(X, XI)
	l.Wf.MatMulAdd(X, XF)
	l.Wo.MatMulAdd(X, XO)
	l.Wg.MatMulAdd(X, XG)
	Hp := sc.Mat(B, H)
	Cp := sc.Mat(B, H)
	row := 0
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		Hpv := Hp.View(ba)
		gate := func(U, bias *nn.Param, XW nn.Mat) nn.Mat {
			M := stepView(XW, row, ba)
			U.MatMulAdd(Hpv, M)
			addBiasRows(M, bias.W, ba)
			return M
		}
		I := gate(l.Ui, l.Bi, XI)
		sigmoidRows(I, ba)
		F := gate(l.Uf, l.Bf, XF)
		sigmoidRows(F, ba)
		O := gate(l.Uo, l.Bo, XO)
		sigmoidRows(O, ba)
		G := gate(l.Ug, l.Bg, XG)
		tanhRows(G, ba)
		row += ba
		for b := 0; b < ba; b++ {
			hp, cp := Hp.Row(b), Cp.Row(b)
			iv, fv, ov, gv := I.Row(b), F.Row(b), O.Row(b), G.Row(b)
			sum := sumH.Row(b)
			for k := 0; k < H; k++ {
				ct := fv[k]*cp[k] + iv[k]*gv[k]
				cp[k] = ct
				h := ov[k] * math.Tanh(ct)
				hp[k] = h
				sum[k] += h
			}
		}
	}
}

// fusedAttention replays Attention.Forward over the stored per-step hidden
// states: u_t = tanh(W h_t) and e_t = vᵀu_t run as GEMMs per step, the
// softmax and the weighted sum replicate the per-path op order per row.
func (m *Model) fusedAttention(ws *fusedWS, steps []nn.Mat, sumH nn.Mat) {
	a := m.attn
	B := len(ws.order)
	maxT := ws.lens[0]
	sc := &ws.sc
	U := sc.Mat(B, a.Att)
	E := sc.Mat(B, 1)
	scoresM := sc.Mat(B, maxT)
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		Uv := U.View(ba)
		U.ZeroRows(ba)
		a.W.MatMulAdd(steps[t], Uv)
		tanhRows(Uv, ba)
		Ev := E.View(ba)
		E.ZeroRows(ba)
		a.V.MatMulAdd(Uv, Ev)
		for b := 0; b < ba; b++ {
			scoresM.Row(b)[t] = Ev.Row(b)[0]
		}
	}
	for b := 0; b < B; b++ {
		T := ws.lens[b]
		alphas := scoresM.Row(b)[:T]
		// Softmax with max subtraction, in Attention.Forward's op order.
		maxS := math.Inf(-1)
		for _, s := range alphas {
			if s > maxS {
				maxS = s
			}
		}
		var sum float64
		for t, s := range alphas {
			alphas[t] = math.Exp(s - maxS)
			sum += alphas[t]
		}
		for t := range alphas {
			alphas[t] /= sum
		}
		row := sumH.Row(b)
		for t := 0; t < T; t++ {
			nn.Axpy(alphas[t], steps[t].Row(b), row)
		}
	}
}

// growMats returns s resized to length n, reusing capacity.
func growMats(s []nn.Mat, n int) []nn.Mat {
	if cap(s) < n {
		return make([]nn.Mat, n)
	}
	return s[:n]
}
