package nn

import (
	"fmt"
	"math/rand"
)

// Embedding is a lookup table mapping integer IDs to dense vectors. It is
// PathRank's vertex-embedding matrix B: initialized from node2vec and either
// frozen (PR-A1) or fine-tuned by backpropagation (PR-A2).
type Embedding struct {
	Table *Param // Vocab x Dim
}

// NewEmbedding allocates a vocab x dim embedding with Xavier init.
func NewEmbedding(vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Table: NewParam("embedding", vocab, dim)}
	e.Table.InitXavier(rng)
	return e
}

// Vocab returns the number of rows.
func (e *Embedding) Vocab() int { return e.Table.Rows }

// Dim returns the embedding dimensionality.
func (e *Embedding) Dim() int { return e.Table.Cols }

// SetRow overwrites the embedding of id (used to load node2vec vectors).
func (e *Embedding) SetRow(id int, v Vec) {
	if len(v) != e.Dim() {
		panic(fmt.Sprintf("nn: SetRow dim %d != embedding dim %d", len(v), e.Dim()))
	}
	copy(e.Table.Row(id), v)
}

// Lookup returns the embedding row of id. The returned slice aliases the
// table; callers must not modify it.
func (e *Embedding) Lookup(id int) Vec { return e.Table.Row(id) }

// AccumGrad adds the gradient d to row id's gradient unless frozen.
func (e *Embedding) AccumGrad(id int, d Vec) {
	if e.Table.Frozen {
		return
	}
	AddTo(e.Table.GradRow(id), d)
}

// Params returns the trainable parameters.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Dense is a fully connected sigmoid layer y = sigmoid(W*x + b), the
// model's score head.
type Dense struct {
	W *Param
	B *Param
}

// NewDense returns an in->out dense layer with Xavier init.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		W: NewParam(name+".W", out, in),
		B: NewParam(name+".b", 1, out),
	}
	d.W.InitXavier(rng)
	return d
}

// DenseCache stores forward activations needed by Backward. The input is
// aliased, not copied: callers must keep x unchanged until Backward.
type DenseCache struct {
	x   Vec // input (aliased)
	out Vec // post-activation
}

// Forward computes the layer output and a cache for Backward.
func (d *Dense) Forward(x Vec) (Vec, *DenseCache) {
	out := NewVec(d.W.Rows)
	d.W.MatVec(x, out)
	AddTo(out, d.B.W)
	SigmoidVec(out, out)
	return out, &DenseCache{x: x, out: out}
}

// ForwardInto is the inference path of Forward: it computes the layer
// output into dst (len W.Rows) without allocating a backward cache. The
// operation sequence (MatVec, bias add, sigmoid) is identical to Forward,
// so the result is bit-identical.
func (d *Dense) ForwardInto(x, dst Vec) {
	d.W.MatVec(x, dst)
	AddTo(dst, d.B.W)
	SigmoidVec(dst, dst)
}

// Backward propagates dOut, accumulating parameter gradients, and returns
// the gradient with respect to the input.
func (d *Dense) Backward(c *DenseCache, dOut Vec) Vec {
	dPre := Copy(dOut)
	for i := range dPre {
		dPre[i] *= c.out[i] * (1 - c.out[i])
	}
	d.W.AccumOuter(dPre, c.x)
	AddTo(d.B.G, dPre)
	dx := NewVec(d.W.Cols)
	d.W.MatTVecAdd(dPre, dx)
	return dx
}

// Params returns the trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }
