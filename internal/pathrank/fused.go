package pathrank

import (
	"cmp"
	"math"
	"slices"

	"pathrank/internal/nn"
	"pathrank/internal/par"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// This file is the fused batched inference path: one /v2/rank sweep becomes
// a few small matrix products per timestep instead of thousands of per-path
// dot products, and every distinct path prefix is stepped once.
//
// The hidden state after t+1 vertices depends only on those vertices, and
// Yen's candidates are deviations of one another, so they share prefixes by
// construction. The sweep's non-empty paths are sorted lexicographically
// and cut into chunks of fusedChunk consecutive paths (a query's candidates
// land together); each chunk is laid out as a prefix trie. Depth d of the
// trie holds one row per distinct length-d prefix, each row knows its parent
// row at depth d-1, and each path knows its row at every depth; depth 0 is
// one root row, the zero initial state. BiGRU's backward direction gets a
// second trie over the reversed sequences: a query's candidates all end at
// its destination, so they share suffixes as well.
//
// Step d runs the gate code on depth d's rows. Everything that depends only
// on the weights comes from the model's inference plan (plan.go): a gate's
// input-side product W·x_t is a row of a per-vertex table, and the weights a
// step multiplies by are packed for the kernel ahead of time. A gate that
// reads h_{t-1} directly (GRU z and r, all four LSTM gates) multiplies U·h
// once per parent row — the rows with children come first in their depth,
// so that is one product over a contiguous block — and each row adds its
// parent's product to its table row; the GRU candidate gate reads the row's
// own r⊙h_{t-1} and multiplies per row. Pooling is per path over its rows:
// the mean in ascending t (descending for the BiGRU backward half),
// attention's u_t and e_t once per row, then the softmax and the weighted
// sum per path in t order; the head is one product over the summaries. All
// of it runs on scratch-arena-backed matrices, with no allocations in
// steady state.
//
// Correctness contract: fused scores are BIT-IDENTICAL to the per-path
// reference (ScoreBatchPerPath). The kernels make a row's result depend only
// on that row's operands, each element accumulated in ascending order (see
// internal/nn/gemm.go), so by induction over the depths a row's operands
// are the per-path operands at that step of every path through it. A table
// entry is the bit pattern the per-path MatVec produces; a per-parent
// product is 0 + dotH, and x + (0 + dotH) is the per-path x + dotH because
// neither a table entry nor a fresh dot is ever -0; the gate, bias and
// activation sequence mirrors GRU.Forward / LSTM.Forward / Dense.Forward op
// for op, and no per-path accumulation changes its order.
// TestScoreBatchFusedMatchesPerPath and FuzzScoreBatchFused enforce this on
// branching path sets for every Body kind, TestFusedStepsEachPrefixOnce
// that a step multiplies each distinct prefix once, and
// TestPlanFollowsWeights that the plan never outlives its weights.

// fusedChunk bounds the paths laid out in one trie. Chunks are scored
// independently (par.For across chunks), so the bound keeps scratch
// slabs modest while still amortizing each weight row across dozens of
// sequences.
const fusedChunk = 32

// fusedWS is the reusable workspace of one chunk.
type fusedWS struct {
	sc    nn.Scratch
	paths []spath.Path // the chunk's paths
	off   []int32      // off[j]: path j's first entry in trie.row; off[n] = path-steps
	tries [2]trie      // forward; reversed, for the BiGRU backward direction
}

// trie is the prefix trie of one chunk's paths read in one direction. Depth
// d holds the distinct length-d prefixes as rows [start[d], start[d+1]),
// the inner[d] rows that have children first. Row 0 is the root.
type trie struct {
	order        []int32 // the paths, lexicographic as read
	lcp          []int32 // lcp[k]: shared prefix length of order[k-1] and order[k]
	start, inner []int32
	vert, parent []int32 // per row: its last vertex, its parent row
	row          []int32 // row[off[j]+t]: path j's row after t+1 vertices
	widest       int     // most rows at one depth
	spans, kids  []span  // build scratch
}

// span is a trie row under construction: the positions [lo, hi) in order
// of the paths through it, and its row (for kids: the parent's).
type span struct{ lo, hi, row int32 }

func (tr *trie) maxT() int { return len(tr.inner) - 1 }
func (tr *trie) rows() int { return int(tr.start[len(tr.start)-1]) }

// depth returns the first row and the row count of depth d.
func (tr *trie) depth(d int) (lo, n int) {
	return int(tr.start[d]), int(tr.start[d+1] - tr.start[d])
}

// compareAsRead orders vertex sequences lexicographically as read forward,
// or backward when reversed; a proper prefix sorts first.
func compareAsRead(a, b []roadnet.VertexID, reversed bool) int {
	if !reversed {
		return slices.Compare(a, b)
	}
	for i := 1; i <= min(len(a), len(b)); i++ {
		if c := cmp.Compare(a[len(a)-i], b[len(b)-i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// build lays out the trie of paths (all non-empty) read forward, or
// backward when reversed; off is fusedWS.off.
func (tr *trie) build(paths []spath.Path, off []int32, reversed bool) {
	at := func(j int32, t int) int32 {
		vs := paths[j].Vertices
		if reversed {
			t = len(vs) - 1 - t
		}
		return int32(vs[t])
	}
	n, maxT := len(paths), 0
	tr.order = tr.order[:0]
	for j, p := range paths {
		tr.order = append(tr.order, int32(j))
		maxT = max(maxT, len(p.Vertices))
	}
	slices.SortFunc(tr.order, func(a, b int32) int {
		return compareAsRead(paths[a].Vertices, paths[b].Vertices, reversed)
	})
	tr.lcp = grow(tr.lcp, n)
	for k := 1; k < n; k++ {
		a, b := tr.order[k-1], tr.order[k]
		c, l := 0, min(len(paths[a].Vertices), len(paths[b].Vertices))
		for c < l && at(a, c) == at(b, c) {
			c++
		}
		tr.lcp[k] = int32(c)
	}
	length := func(k int32) int { return len(paths[tr.order[k]].Vertices) }
	tr.row = grow(tr.row, int(off[n]))
	tr.vert = grow(tr.vert, int(off[n])+1)
	tr.parent = grow(tr.parent, int(off[n])+1)
	tr.start = grow(tr.start, maxT+2)
	tr.inner = grow(tr.inner, maxT+1)
	tr.start[0], tr.inner[0], tr.widest = 0, 1, 0
	tr.spans = append(tr.spans[:0], span{0, int32(n), 0})
	next := int32(1)
	for d := 1; d <= maxT; d++ {
		// The paths through a row of depth d-1 that go on are consecutive in
		// order (a proper prefix sorts first, so the ones that end come
		// first), and those sharing their first d vertices make one row.
		tr.kids = tr.kids[:0]
		for _, s := range tr.spans {
			k := s.lo
			for length(k) < d {
				k++
			}
			for k < s.hi {
				e := k + 1
				for e < s.hi && int(tr.lcp[e]) >= d {
					e++
				}
				tr.kids = append(tr.kids, span{k, e, s.row})
				k = e
			}
		}
		// A row has children iff its last path is longer than d; those rows
		// are numbered first, and only their spans go on to depth d+1.
		inner := int32(0)
		for _, c := range tr.kids {
			if length(c.hi-1) > d {
				inner++
			}
		}
		tr.start[d], tr.inner[d] = next, inner
		in, leaf := next, next+inner
		tr.spans = tr.spans[:0]
		for _, c := range tr.kids {
			r := leaf
			if length(c.hi-1) > d {
				r, in = in, in+1
				tr.spans = append(tr.spans, span{c.lo, c.hi, r})
			} else {
				leaf++
			}
			tr.vert[r], tr.parent[r] = at(tr.order[c.lo], d-1), c.row
			for _, j := range tr.order[c.lo:c.hi] {
				tr.row[off[j]+int32(d)-1] = r
			}
		}
		tr.widest = max(tr.widest, len(tr.kids))
		next = leaf
	}
	tr.start[maxT+1] = next
}

// sortSweep refills order with the indices of cands' non-empty paths in
// lexicographic order of their vertex sequences.
func sortSweep(order []int32, cands []spath.Path) []int32 {
	order = order[:0]
	for i, p := range cands {
		if len(p.Vertices) > 0 {
			order = append(order, int32(i))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return slices.Compare(cands[a].Vertices, cands[b].Vertices)
	})
	return order
}

// layout takes the chunk cands[idx] and builds its tries: dirs is the
// number of recurrent directions (0 for MeanPoolBody, 2 for BiGRUBody).
func (ws *fusedWS) layout(cands []spath.Path, idx []int32, dirs int) {
	ws.paths = ws.paths[:0]
	ws.off = append(ws.off[:0], 0)
	for _, i := range idx {
		ws.paths = append(ws.paths, cands[i])
		ws.off = append(ws.off, ws.off[len(ws.off)-1]+int32(len(cands[i].Vertices)))
	}
	for d := range dirs {
		ws.tries[d].build(ws.paths, ws.off, d == 1)
	}
}

// ScoreBatchFused scores the candidates through the batched GEMM kernels
// and returns the raw scores in input order, bit-identical to
// ScoreBatchPerPath. The non-empty paths are sorted lexicographically and
// chunks of fusedChunk consecutive ones are scored independently (in
// parallel when workers are available); empty paths score 0, exactly like
// Score.
func (m *Model) ScoreBatchFused(cands []spath.Path) []float64 {
	out := make([]float64, len(cands))
	pl := m.inferencePlan()
	// The sweep's order has its own pool: were it a chunk workspace, a
	// chunk could be handed the small-arena workspace the last sweep sorted
	// in, and a warm model would still grow arenas.
	sorted, _ := m.orderPool.Get().(*[]int32)
	if sorted == nil {
		sorted = new([]int32)
	}
	order := sortSweep(*sorted, cands)
	nchunks := (len(order) + fusedChunk - 1) / fusedChunk
	par.For(nchunks, func(c int) {
		lo := c * fusedChunk
		m.scoreFusedChunk(pl, cands, order[lo:min(lo+fusedChunk, len(order))], out)
	})
	*sorted = order
	m.orderPool.Put(sorted)
	return out
}

func (m *Model) fusedWS() *fusedWS {
	if ws, _ := m.fusedPool.Get().(*fusedWS); ws != nil {
		return ws
	}
	return new(fusedWS)
}

// scoreFusedChunk lays out the chunk cands[idx] and runs the fused forward
// pass for the model's body, writing path idx[j]'s score to out[idx[j]].
func (m *Model) scoreFusedChunk(pl *plan, cands []spath.Path, idx []int32, out []float64) {
	ws := m.fusedWS()
	ws.sc.Reset()
	ws.layout(cands, idx, len(pl.cells))
	sc, fwd := &ws.sc, &ws.tries[0]
	sumH := sc.Mat(len(idx), m.head.W.Cols)
	switch m.cfg.Body {
	case GRUBody:
		ws.sumRows(sumH, 0, fusedGRU(pl.cells[0], sc, fwd), fwd, false)
	case BiGRUBody:
		ws.sumRows(sumH, 0, fusedGRU(pl.cells[0], sc, fwd), fwd, false)
		bwd := &ws.tries[1]
		ws.sumRows(sumH, m.bigru.Fwd.Hidden, fusedGRU(pl.cells[1], sc, bwd), bwd, true)
	case LSTMBody:
		ws.sumRows(sumH, 0, fusedLSTM(pl.cells[0], sc, fwd), fwd, false)
	case MeanPoolBody:
		E := m.emb.Table.AsMat()
		for j, p := range ws.paths {
			for _, v := range p.Vertices {
				nn.AddTo(sumH.Row(j), E.Row(int(v)))
			}
		}
	case AttnGRUBody:
		m.fusedAttention(pl, ws, fusedGRU(pl.cells[0], sc, fwd), sumH)
	}
	if m.cfg.Body != AttnGRUBody {
		// meanVecsInto's final Scale, per path.
		for j, p := range ws.paths {
			nn.Scale(1/float64(len(p.Vertices)), sumH.Row(j))
		}
	}

	// Regression head: one product over the summaries, then the same bias
	// add and sigmoid Dense.Forward applies.
	scores := sc.Mat(len(idx), m.head.W.Rows)
	pl.head.MulAdd(scores, sumH)
	for j, i := range idx {
		out[i] = nn.Sigmoid(scores.Row(j)[0] + m.head.B.W[0])
	}
	clear(ws.paths)
	m.fusedPool.Put(ws)
}

// sumRows adds each path's row states into its summary row from column col
// on: in ascending t, or descending for the BiGRU backward half (the
// per-path summary adds hb[T-1-t] at step t).
func (ws *fusedWS) sumRows(sumH nn.Mat, col int, Hs nn.Mat, tr *trie, backward bool) {
	for j := range ws.paths {
		rows := tr.row[ws.off[j]:ws.off[j+1]]
		sum := sumH.Row(j)[col:]
		for t := range rows {
			if backward {
				t = len(rows) - 1 - t
			}
			nn.AddTo(sum, Hs.Row(int(rows[t])))
		}
	}
}

// parentProducts multiplies the gate's U by h_{t-1} once per row of depth
// d-1 that has children, into the slab P, and returns plo, the first such
// row: row p's product is then P.Row(p - plo).
func (g *gatePlan) parentProducts(P, Hs nn.Mat, tr *trie, d int) (plo int) {
	plo, np := int(tr.start[d-1]), int(tr.inner[d-1])
	P.ZeroRows(np)
	g.u.MulAdd(P.View(np), rowRange(Hs, plo, np))
	return plo
}

// atParents evaluates a gate that reads h_{t-1} directly over depth d's
// rows into dst: its parents' products, then per row epi of its vertex's
// table entry (W·x_t), its parent's product and the bias — Add3 and the
// activation in one sweep.
func (g *gatePlan) atParents(epi func(dst, a, b, c nn.Vec), dst, P, Hs nn.Mat, tr *trie, d int) nn.Mat {
	plo := g.parentProducts(P, Hs, tr, d)
	lo, n := tr.depth(d)
	out := dst.View(n)
	for i := range n {
		epi(out.Row(i), g.x.Row(int(tr.vert[lo+i])), P.Row(int(tr.parent[lo+i])-plo), g.bias)
	}
	return out
}

// tanhAdd3 is the LSTM candidate gate's epilogue: Add3, then TanhVec.
func tanhAdd3(dst, a, b, c nn.Vec) {
	nn.Add3(dst, a, b, c)
	nn.TanhVec(dst, dst)
}

// fusedGRU steps one GRU direction (gates z, r, h of the plan) through the
// trie, mirroring GRU.Forward: each gate element is 0 + dotX + dotH + bias.
// The reset gate goes straight to r⊙h_{t-1}, and the candidate's bias,
// tanh and the state update run as one epilogue per row. It returns every
// row's hidden state; the root row stays zero.
func fusedGRU(gates []gatePlan, sc *nn.Scratch, tr *trie) nn.Mat {
	H, w := gates[0].x.Cols, tr.widest
	Hs := sc.Mat(tr.rows(), H)
	P, Zs, RHs, Hhs := sc.Mat(w, H), sc.Mat(w, H), sc.Mat(w, H), sc.Mat(w, H)
	for d := 1; d <= tr.maxT(); d++ {
		lo, n := tr.depth(d)
		vert, parent := tr.vert[lo:lo+n], tr.parent[lo:lo+n]
		Z := gates[0].atParents(nn.SigmoidAdd3, Zs, P, Hs, tr, d)
		r := &gates[1]
		plo := r.parentProducts(P, Hs, tr, d)
		RH := RHs.View(n)
		for i, p := range parent {
			nn.SigmoidAdd3Mul(RH.Row(i), r.x.Row(int(vert[i])), P.Row(int(p)-plo), r.bias, Hs.Row(int(p)))
		}
		h := &gates[2]
		Hh := Hhs.View(n)
		for i, v := range vert {
			copy(Hh.Row(i), h.x.Row(int(v)))
		}
		h.u.MulAdd(Hh, RH)
		for i, p := range parent {
			nn.TanhAddLerp(Hs.Row(lo+i), Hh.Row(i), h.bias, Z.Row(i), Hs.Row(int(p)))
		}
	}
	return Hs
}

// fusedLSTM mirrors LSTM.Forward through the trie (gates i, f, o, g of the
// plan) and returns every row's hidden state: c_t per element, then
// tanh(c_t) as one sweep over the depth's rows, then h = o⊙tanh(c_t).
func fusedLSTM(gates []gatePlan, sc *nn.Scratch, tr *trie) nn.Mat {
	H, w := gates[0].x.Cols, tr.widest
	Hs, Cs := sc.Mat(tr.rows(), H), sc.Mat(tr.rows(), H)
	P, Is, Fs, Os, Gs := sc.Mat(w, H), sc.Mat(w, H), sc.Mat(w, H), sc.Mat(w, H), sc.Mat(w, H)
	for d := 1; d <= tr.maxT(); d++ {
		lo, n := tr.depth(d)
		I := gates[0].atParents(nn.SigmoidAdd3, Is, P, Hs, tr, d)
		F := gates[1].atParents(nn.SigmoidAdd3, Fs, P, Hs, tr, d)
		O := gates[2].atParents(nn.SigmoidAdd3, Os, P, Hs, tr, d)
		G := gates[3].atParents(tanhAdd3, Gs, P, Hs, tr, d)
		for i := range n {
			cp, c := Cs.Row(int(tr.parent[lo+i])), Cs.Row(lo+i)
			iv, fv, gv := I.Row(i), F.Row(i), G.Row(i)
			for k := range c {
				c[k] = fv[k]*cp[k] + iv[k]*gv[k]
			}
		}
		nn.TanhVec(rowRange(Hs, lo, n).Data, rowRange(Cs, lo, n).Data)
		for i := range n {
			nn.Hadamard(Hs.Row(lo+i), O.Row(i), Hs.Row(lo+i))
		}
	}
	return Hs
}

// fusedAttention replays Attention.Forward over the rows' hidden states:
// u = tanh(W h) and e = vᵀu run as one packed product each over every row
// but the root, then the softmax and the weighted sum replicate the
// per-path op order per path.
func (m *Model) fusedAttention(pl *plan, ws *fusedWS, Hs, sumH nn.Mat) {
	tr, sc := &ws.tries[0], &ws.sc
	states := rowRange(Hs, 1, tr.rows()-1)
	U := sc.Mat(states.Rows, m.attn.Att)
	pl.attnW.MulAdd(U, states)
	nn.TanhVec(U.Data, U.Data)
	E := sc.Mat(states.Rows, 1)
	pl.attnV.MulAdd(E, U)
	buf := sc.Vec(tr.maxT())
	for j := range ws.paths {
		rows := tr.row[ws.off[j]:ws.off[j+1]]
		alphas := buf[:len(rows)]
		for t, r := range rows {
			alphas[t] = E.Data[r-1]
		}
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
		for t, r := range rows {
			nn.Axpy(alphas[t], Hs.Row(int(r)), sumH.Row(j))
		}
	}
}
