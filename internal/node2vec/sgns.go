package node2vec

import (
	"math"
	"math/rand"

	"pathrank/internal/roadnet"
)

// TrainConfig parameterizes skip-gram-with-negative-sampling training.
type TrainConfig struct {
	Dim       int     // embedding dimensionality M
	Window    int     // context window size
	Negatives int     // negative samples per positive pair
	Epochs    int     // passes over the walk corpus
	LR        float64 // initial learning rate (linearly decayed)
	Seed      int64
}

// DefaultTrainConfig returns settings adequate for road networks.
func DefaultTrainConfig(dim int) TrainConfig {
	return TrainConfig{Dim: dim, Window: 5, Negatives: 5, Epochs: 3, LR: 0.025, Seed: 1}
}

// Embeddings holds one vector per vertex.
type Embeddings struct {
	Dim  int
	Vecs [][]float64 // indexed by vertex ID
}

// Vector returns the embedding of v. The slice aliases internal storage.
func (e *Embeddings) Vector(v roadnet.VertexID) []float64 { return e.Vecs[v] }

// NumVertices returns the vocabulary size.
func (e *Embeddings) NumVertices() int { return len(e.Vecs) }

// Cosine returns the cosine similarity of the embeddings of a and b.
func (e *Embeddings) Cosine(a, b roadnet.VertexID) float64 {
	va, vb := e.Vecs[a], e.Vecs[b]
	var dot, na, nb float64
	for i := range va {
		dot += va[i] * vb[i]
		na += va[i] * va[i]
		nb += vb[i] * vb[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Train runs SGNS over the walks and returns input-side embeddings for all
// g's vertices. Vertices that never appear in a walk keep their random
// initialization.
func Train(g *roadnet.Graph, walks [][]roadnet.VertexID, cfg TrainConfig) *Embeddings {
	n := g.NumVertices()
	dim := cfg.Dim
	rng := rand.New(rand.NewSource(cfg.Seed))

	in := make([][]float64, n)  // target vectors (the output of training)
	out := make([][]float64, n) // context vectors
	for v := 0; v < n; v++ {
		in[v] = make([]float64, dim)
		out[v] = make([]float64, dim)
		for d := 0; d < dim; d++ {
			in[v][d] = (rng.Float64() - 0.5) / float64(dim)
		}
	}

	// Negative-sampling distribution: unigram^0.75 over walk occurrences.
	freq := make([]float64, n)
	for _, walk := range walks {
		for _, v := range walk {
			freq[v]++
		}
	}
	for v := range freq {
		freq[v] = math.Pow(freq[v], 0.75)
	}
	negTable := newAliasTable(freq)

	totalPairs := estimatePairs(walks, cfg.Window) * cfg.Epochs
	if totalPairs == 0 {
		totalPairs = 1
	}

	trainWalks(walks, in, out, negTable, rng, cfg, totalPairs)
	return &Embeddings{Dim: dim, Vecs: in}
}

// trainWalks runs the SGNS update loop over walks, decaying the learning
// rate linearly over totalPairs updates.
func trainWalks(walks [][]roadnet.VertexID, in, out [][]float64, negTable *aliasTable,
	rng *rand.Rand, cfg TrainConfig, totalPairs int) {

	dim := cfg.Dim
	grad := make([]float64, dim)
	pairs := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, walk := range walks {
			for i, center := range walk {
				lo := i - cfg.Window
				if lo < 0 {
					lo = 0
				}
				hi := i + cfg.Window
				if hi >= len(walk) {
					hi = len(walk) - 1
				}
				for j := lo; j <= hi; j++ {
					if j == i {
						continue
					}
					ctx := walk[j]
					lr := cfg.LR * (1 - float64(pairs)/float64(totalPairs))
					if lr < cfg.LR*0.0001 {
						lr = cfg.LR * 0.0001
					}
					trainPair(in[center], out[ctx], 1, lr, grad)
					for k := 0; k < cfg.Negatives; k++ {
						neg := roadnet.VertexID(negTable.sample(rng))
						if neg == ctx {
							continue
						}
						trainPair(in[center], out[neg], 0, lr, grad)
					}
					// Apply accumulated input gradient once per context.
					for d := 0; d < dim; d++ {
						in[center][d] += grad[d]
						grad[d] = 0
					}
					pairs++
				}
			}
		}
	}
}

// trainPair performs one SGNS update for (target, context) with label 1 for
// a positive pair and 0 for a negative one. The input-side gradient is
// accumulated into grad; the context vector is updated in place.
func trainPair(target, context []float64, label float64, lr float64, grad []float64) {
	var dot float64
	for d := range target {
		dot += target[d] * context[d]
	}
	pred := 1 / (1 + math.Exp(-dot))
	g := lr * (label - pred)
	for d := range target {
		grad[d] += g * context[d]
		context[d] += g * target[d]
	}
}

func estimatePairs(walks [][]roadnet.VertexID, window int) int {
	total := 0
	for _, w := range walks {
		l := len(w)
		span := 2 * window
		if span > l-1 {
			span = l - 1
		}
		total += l * span
	}
	return total
}

// Embed is a convenience that generates walks and trains in one call.
func Embed(g *roadnet.Graph, wc WalkConfig, tc TrainConfig) *Embeddings {
	walks := GenerateWalks(g, wc)
	return Train(g, walks, tc)
}
