package pathrank

import (
	"math"

	"pathrank/internal/nn"
	"pathrank/internal/spath"
)

// This file is the fused batched inference path: one /v2/rank batch becomes
// a few small matrix products per timestep instead of thousands of per-path
// dot products.
//
// Candidate paths are packed into a ragged batch sorted by length
// (descending), so at every timestep the still-active sequences form a
// prefix of the batch. Everything that depends only on the weights comes
// from the model's inference plan (plan.go): a gate's input-side product
// W·x_t is a row of a per-vertex table, copied into the step's slab, and
// the weights a step still multiplies by are packed for the kernel ahead of
// time. What is computed per step is the recurrent half — U·h_{t-1} for
// every active path at once, H x H per gate — then bias, activation and
// the state update, on scratch-arena-backed matrices, with no allocations
// in steady state.
//
// Correctness contract: fused scores are BIT-IDENTICAL to the per-path
// path. The kernels preserve per-element accumulation order (see
// internal/nn/gemm.go), a table entry is the bit pattern the per-path
// MatVec produces, the gate/bias/activation sequence mirrors
// GRU.Forward / LSTM.Forward / Dense.Forward op for op, and summaries
// accumulate hidden states in the same per-path order (ascending t for
// forward directions, descending for the BiGRU backward half, exactly as
// BiGRU.Forward + meanVecs compose). TestScoreBatchFusedMatchesPerPath
// enforces this across every Body kind and path length, and
// TestPlanFollowsWeights that the plan never outlives the weights it was
// derived from.

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
	pl := m.inferencePlan()
	nchunks := (len(cands) + fusedChunk - 1) / fusedChunk
	parallelFor(nchunks, func(c int) {
		lo := c * fusedChunk
		hi := lo + fusedChunk
		if hi > len(cands) {
			hi = len(cands)
		}
		m.scoreFusedChunk(pl, cands[lo:hi], out[lo:hi])
	})
	return out
}

// scoreFusedChunk packs one chunk of candidates into a ragged batch and
// runs the fused forward pass for the model's body, scattering scores into
// out (indexed like cands).
func (m *Model) scoreFusedChunk(pl *plan, cands []spath.Path, out []float64) {
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
		fusedGRU(pl.cells[0], ws, cands, false, false, sumH)
		scaleMeanRows(ws, sumH)
	case BiGRUBody:
		fusedGRU(pl.cells[0], ws, cands, false, false, sumH)
		steps := fusedGRU(pl.cells[1], ws, cands, true, true, nn.Mat{})
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
		scaleMeanRows(ws, sumH)
	case LSTMBody:
		fusedLSTM(pl.cells[0], ws, cands, sumH)
		scaleMeanRows(ws, sumH)
	case MeanPoolBody:
		X := ws.sc.Mat(B, m.emb.Dim())
		E := m.emb.Table.AsMat()
		for t := 0; t < maxT; t++ {
			ba := ws.active[t]
			gatherRows(X, E, ws, cands, t, false, ba)
			for b := 0; b < ba; b++ {
				nn.AddTo(sumH.Row(b), X.Row(b))
			}
		}
		scaleMeanRows(ws, sumH)
	case AttnGRUBody:
		steps := fusedGRU(pl.cells[0], ws, cands, false, true, nn.Mat{})
		m.fusedAttention(pl, ws, steps, sumH)
	}

	// Regression head: one product over the batch of summaries, then the
	// same bias add and sigmoid Dense.Forward applies.
	scores := ws.sc.Mat(B, m.head.W.Rows)
	pl.head.MulAdd(scores, sumH)
	for b := 0; b < B; b++ {
		s := scores.Row(b)[0] + m.head.B.W[0]
		out[ws.order[b]] = nn.Sigmoid(s)
	}
}

// scaleMeanRows divides each summary row by its own sequence length —
// the per-row counterpart of meanVecs' final Scale.
func scaleMeanRows(ws *fusedWS, sumH nn.Mat) {
	for b := range ws.order {
		nn.Scale(1/float64(ws.lens[b]), sumH.Row(b))
	}
}

// gatherRows copies, for every active sequence, the table row of its
// step-t vertex into the first ba rows of dst. reversed selects the
// mirrored timestep (the BiGRU backward direction), per sequence length.
func gatherRows(dst, table nn.Mat, ws *fusedWS, cands []spath.Path, t int, reversed bool, ba int) {
	for b := 0; b < ba; b++ {
		idx := t
		if reversed {
			idx = ws.lens[b] - 1 - t
		}
		copy(dst.Row(b), table.Row(int(cands[ws.order[b]].Vertices[idx])))
	}
}

// eval fills the first ba rows of dst with one gate at step t and returns
// them: the table row of each path's vertex (W·x_t), plus U·h for the rows
// of h, plus the bias, through act — MatVec → MatVecAdd → bias →
// activation, in GRU.Forward's and LSTM.Forward's order.
func (g *gatePlan) eval(act func(dst, x nn.Vec), dst, h nn.Mat, ws *fusedWS, cands []spath.Path, t int, reversed bool) nn.Mat {
	ba := h.Rows
	gatherRows(dst, g.x, ws, cands, t, reversed, ba)
	out := dst.View(ba)
	g.u.MulAdd(out, h)
	for b := 0; b < ba; b++ {
		nn.AddTo(out.Row(b), g.bias)
	}
	act(out.Data, out.Data)
	return out
}

// fusedGRU runs one GRU direction (gates z, r, h of the plan) over the
// ragged batch, mirroring GRU.Forward exactly: each gate element is
// 0 + dotX + dotH + bias in both layouts. When sumH has storage, hidden
// states accumulate into its first H columns as they are produced (the
// ascending-t half of mean pooling); when keepSteps is set, the per-step
// hidden-state matrices are returned for pooling that needs them (BiGRU
// backward half, attention).
func fusedGRU(gates []gatePlan, ws *fusedWS, cands []spath.Path, reversed, keepSteps bool, sumH nn.Mat) []nn.Mat {
	maxT := ws.lens[0]
	B := len(ws.order)
	H := gates[0].x.Cols
	sc := &ws.sc
	Hp := sc.Mat(B, H) // h_{t-1}; zero initial state
	RH := sc.Mat(B, H)
	Zs, Rs, Hhs := sc.Mat(B, H), sc.Mat(B, H), sc.Mat(B, H)
	var steps []nn.Mat
	if keepSteps {
		ws.steps = growMats(ws.steps, maxT)
		steps = ws.steps
	}
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		Hpv := Hp.View(ba)

		Z := gates[0].eval(nn.SigmoidVec, Zs, Hpv, ws, cands, t, reversed)
		R := gates[1].eval(nn.SigmoidVec, Rs, Hpv, ws, cands, t, reversed)
		for b := 0; b < ba; b++ {
			nn.Hadamard(RH.Row(b), R.Row(b), Hp.Row(b))
		}
		Hh := gates[2].eval(nn.TanhVec, Hhs, RH.View(ba), ws, cands, t, reversed)

		var stepM nn.Mat
		if keepSteps {
			stepM = sc.Mat(ba, H)
			steps[t] = stepM
		}
		for b := 0; b < ba; b++ {
			hp, z, hh := Hp.Row(b), Z.Row(b), Hh.Row(b)
			var sum nn.Vec
			if sumH.Data != nil {
				sum = sumH.Row(b)[:H]
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

// fusedLSTM mirrors LSTM.Forward over the ragged batch (gates i, f, o, g
// of the plan); hidden states sum into sumH as they are produced.
func fusedLSTM(gates []gatePlan, ws *fusedWS, cands []spath.Path, sumH nn.Mat) {
	B := len(ws.order)
	maxT := ws.lens[0]
	H := gates[0].x.Cols
	sc := &ws.sc
	Hp := sc.Mat(B, H)
	Cp := sc.Mat(B, H)
	Is, Fs, Os, Gs := sc.Mat(B, H), sc.Mat(B, H), sc.Mat(B, H), sc.Mat(B, H)
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		Hpv := Hp.View(ba)
		I := gates[0].eval(nn.SigmoidVec, Is, Hpv, ws, cands, t, false)
		F := gates[1].eval(nn.SigmoidVec, Fs, Hpv, ws, cands, t, false)
		O := gates[2].eval(nn.SigmoidVec, Os, Hpv, ws, cands, t, false)
		G := gates[3].eval(nn.TanhVec, Gs, Hpv, ws, cands, t, false)
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
// states: u_t = tanh(W h_t) and e_t = vᵀu_t run as packed products per
// step, the softmax and the weighted sum replicate the per-path op order
// per row.
func (m *Model) fusedAttention(pl *plan, ws *fusedWS, steps []nn.Mat, sumH nn.Mat) {
	B := len(ws.order)
	maxT := ws.lens[0]
	sc := &ws.sc
	U := sc.Mat(B, m.attn.Att)
	E := sc.Mat(B, 1)
	scoresM := sc.Mat(B, maxT)
	for t := 0; t < maxT; t++ {
		ba := ws.active[t]
		Uv := U.View(ba)
		U.ZeroRows(ba)
		pl.attnW.MulAdd(Uv, steps[t])
		nn.TanhVec(Uv.Data, Uv.Data)
		Ev := E.View(ba)
		E.ZeroRows(ba)
		pl.attnV.MulAdd(Ev, Uv)
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
