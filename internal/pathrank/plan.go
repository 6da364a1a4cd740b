package pathrank

import (
	"pathrank/internal/nn"
	"pathrank/internal/par"
)

// plan is everything the fused scorer reads that depends only on the
// weights: derived once per weight generation, immutable afterwards, and
// reached through one atomic load of Model.plan. It is never stored — a
// loaded model rebuilds it (5-10 ms on 3 152 vertices), so no file can hold a
// table that disagrees with its weights.
type plan struct {
	// cells holds the gates of each recurrent direction in the cell's own
	// order (GRU z, r, h; LSTM i, f, o, g): one direction, two for BiGRU
	// (forward, backward), none for MeanPoolBody.
	cells [][]gatePlan

	attnW, attnV *nn.PackedNT // AttnGRUBody only
	head         *nn.PackedNT
}

// gatePlan is one gate of one recurrent direction. x[v] is W·B[v] and
// nothing else: the gate element stays 0 + dotX + dotH + bias in that
// order, so folding the bias into the table would reassociate the sum.
type gatePlan struct {
	x    nn.Mat // V x H, row v = the input-side product of vertex v
	u    *nn.PackedNT
	bias nn.Vec
}

// planBlock is the number of embedding rows one table-building task
// multiplies; blocks are independent, so they fan out over par.For.
const planBlock = 256

// Prepare builds the model's inference plan if it has none, so that no
// later ScoreBatch pays for it. Everything that starts serving a model
// calls it off the request path. The plan costs gates x V x Hidden x 8
// bytes per recurrent direction.
func (m *Model) Prepare() { m.inferencePlan() }

// inferencePlan returns the current plan, building it on first use after
// the weights last changed. Concurrent first uses may each build one; the
// plans are equal and either may win.
func (m *Model) inferencePlan() *plan {
	if p := m.plan.Load(); p != nil {
		return p
	}
	p := &plan{head: nn.PackNT(m.head.W.AsMat())}
	gru := func(g *nn.GRU) []gatePlan {
		return m.planGates(
			[]*nn.Param{g.Wz, g.Wr, g.Wh},
			[]*nn.Param{g.Uz, g.Ur, g.Uh},
			[]*nn.Param{g.Bz, g.Br, g.Bh})
	}
	switch m.cfg.Body {
	case GRUBody, AttnGRUBody:
		p.cells = [][]gatePlan{gru(m.gru)}
	case BiGRUBody:
		p.cells = [][]gatePlan{gru(m.bigru.Fwd), gru(m.bigru.Bwd)}
	case LSTMBody:
		l := m.lstm
		p.cells = [][]gatePlan{m.planGates(
			[]*nn.Param{l.Wi, l.Wf, l.Wo, l.Wg},
			[]*nn.Param{l.Ui, l.Uf, l.Uo, l.Ug},
			[]*nn.Param{l.Bi, l.Bf, l.Bo, l.Bg})}
	}
	if m.attn != nil {
		p.attnW = nn.PackNT(m.attn.W.AsMat())
		p.attnV = nn.PackNT(m.attn.V.AsMat())
	}
	m.plan.Store(p)
	return p
}

// planGates builds one direction's gates. Each table is B·Wᵀ by GemmNT
// over the embedding matrix itself (no gather) into zeroed storage, so
// every entry is the bit pattern 0 + dot(W_j, B[v]) the per-path
// MatVec/MatVecAdd sequence starts from.
func (m *Model) planGates(W, U, bias []*nn.Param) []gatePlan {
	E := m.emb.Table.AsMat()
	gates := make([]gatePlan, len(W))
	for g := range gates {
		gates[g] = gatePlan{
			x:    nn.NewMat(E.Rows, W[g].Rows),
			u:    nn.PackNT(U[g].AsMat()),
			bias: bias[g].W,
		}
	}
	blocks := (E.Rows + planBlock - 1) / planBlock
	par.For(len(gates)*blocks, func(i int) {
		g, lo := i/blocks, i%blocks*planBlock
		rows := min(planBlock, E.Rows-lo)
		W[g].MatMulAdd(rowRange(E, lo, rows), rowRange(gates[g].x, lo, rows))
	})
	return gates
}

// rowRange returns rows [lo, lo+rows) of M as a matrix view.
func rowRange(M nn.Mat, lo, rows int) nn.Mat {
	return nn.Mat{Rows: rows, Cols: M.Cols, Data: M.Data[lo*M.Cols : (lo+rows)*M.Cols]}
}
