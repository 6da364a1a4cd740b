package pathrank

import (
	"fmt"
	"math/rand"
	"slices"

	"pathrank/internal/dataset"
	"pathrank/internal/metrics"
	"pathrank/internal/nn"
	"pathrank/internal/node2vec"
	"pathrank/internal/par"
	"pathrank/internal/spath"
)

// TrainConfig parameterizes the training loop.
type TrainConfig struct {
	Epochs   int
	LR       float64
	ClipNorm float64
	Seed     int64
	// LRDecay multiplies the learning rate after each epoch when in (0,1);
	// zero disables decay.
	LRDecay float64
	// Logf, when non-nil, receives one progress line per epoch.
	Logf func(format string, args ...any)
}

// DefaultTrainConfig returns the paper-style optimizer settings.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 20, LR: 0.003, ClipNorm: 5, Seed: 1}
}

// Train fits the model to the training queries with Adam, one candidate at
// a time (sequences have variable length). It returns the per-epoch mean
// training loss. The first Train gives the model its gradient
// accumulators, which a loaded or cloned model does not carry.
func (m *Model) Train(queries []dataset.Query, cfg TrainConfig) ([]float64, error) {
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("pathrank: epochs must be positive, got %d", cfg.Epochs)
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("pathrank: learning rate must be positive, got %v", cfg.LR)
	}
	type sample struct {
		inst dataset.Instance
	}
	var samples []sample
	for _, q := range queries {
		for _, c := range q.Candidates {
			if len(c.Path.Vertices) == 0 {
				continue
			}
			samples = append(samples, sample{inst: c})
		}
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("pathrank: no non-empty training candidates")
	}

	nn.AllocGrads(m.params...)
	rng := rand.New(rand.NewSource(cfg.Seed))
	opt := nn.NewAdam(cfg.LR, m.params)
	losses := make([]float64, 0, cfg.Epochs)
	lambda := m.cfg.MultiTaskLambda

	m.weightsChanged() // the first step writes them
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		var epochLoss float64
		for _, s := range samples {
			st := m.forward(s.inst.Path, true)
			loss, dScore := nn.MSELoss(st.headOut[0], s.inst.Label)
			var dLen, dTime float64
			if m.auxLen != nil {
				lLen, gLen := nn.MSELoss(st.auxLenOut[0], s.inst.LengthRatio)
				lTime, gTime := nn.MSELoss(st.auxTimeOut[0], s.inst.TimeRatio)
				loss += lambda * (lLen + lTime)
				dLen = lambda * gLen
				dTime = lambda * gTime
			}
			m.backward(st, dScore, dLen, dTime)
			st.release()
			if cfg.ClipNorm > 0 {
				nn.ClipGrad(m.params, cfg.ClipNorm)
			}
			opt.Step()
			epochLoss += loss
		}
		// The epoch moved the weights; drop the plan before Logf, the only
		// code that runs inside Train and could score.
		m.weightsChanged()
		epochLoss /= float64(len(samples))
		losses = append(losses, epochLoss)
		if cfg.Logf != nil {
			cfg.Logf("epoch %d/%d loss %.5f", epoch+1, cfg.Epochs, epochLoss)
		}
		if cfg.LRDecay > 0 && cfg.LRDecay < 1 {
			opt.LR *= cfg.LRDecay
		}
	}
	return losses, nil
}

// Fit is the one training entry point: it builds a model over numVertices
// vertices under cfg, starts its embedding table from emb, and trains it on
// queries under tcfg. BuildPipeline (pathrank-train's offline build) and
// the paper's tables both train through it. It returns the model and the
// per-epoch mean training loss.
func Fit(numVertices int, emb *node2vec.Embeddings, queries []dataset.Query, cfg Config, tcfg TrainConfig) (*Model, []float64, error) {
	m, err := New(numVertices, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := m.InitEmbeddings(emb); err != nil {
		return nil, nil, err
	}
	losses, err := m.Train(queries, tcfg)
	if err != nil {
		return nil, nil, err
	}
	return m, losses, nil
}

// DefaultFineTuneConfig returns the incremental-training settings: a short
// warm-start schedule with a reduced learning rate, so a fine-tune nudges
// the model toward the new observation window without forgetting the
// offline training run it grew from.
func DefaultFineTuneConfig() TrainConfig {
	return TrainConfig{Epochs: 3, LR: 0.001, ClipNorm: 5, Seed: 1}
}

// FineTune continues training from the model's current weights on a new
// batch of queries — the incremental entry point used by the streaming
// retrainer. Zero-valued Epochs/LR/ClipNorm fall back to
// DefaultFineTuneConfig; the optimizer state is fresh (Adam moments are not
// carried across fine-tunes), and with a fixed cfg.Seed the result is a
// deterministic function of (current weights, queries, cfg). It returns the
// per-epoch mean training loss.
func (m *Model) FineTune(queries []dataset.Query, cfg TrainConfig) ([]float64, error) {
	def := DefaultFineTuneConfig()
	if cfg.Epochs <= 0 {
		cfg.Epochs = def.Epochs
	}
	if cfg.LR <= 0 {
		cfg.LR = def.LR
	}
	if cfg.ClipNorm <= 0 {
		cfg.ClipNorm = def.ClipNorm
	}
	return m.Train(queries, cfg)
}

// Evaluate scores every candidate of every query and aggregates the paper's
// four metrics (MAE, MARE, Kendall τ, Spearman ρ). Each query's candidates
// are one ScoreBatch sweep, the served scorer; queries are scored in
// parallel across GOMAXPROCS workers, and every worker writes disjoint
// indices, so the report is bitwise identical to a serial evaluation.
func (m *Model) Evaluate(queries []dataset.Query) metrics.Report {
	m.Prepare()
	preds := make([][]float64, len(queries))
	targets := make([][]float64, len(queries))
	par.For(len(queries), func(qi int) {
		q := queries[qi]
		paths := make([]spath.Path, len(q.Candidates))
		targets[qi] = make([]float64, len(q.Candidates))
		for ci, c := range q.Candidates {
			paths[ci] = c.Path
			targets[qi][ci] = c.Label
		}
		preds[qi] = m.ScoreBatch(paths)
	})
	return metrics.Evaluate(preds, targets)
}

// Ranked pairs a candidate path with its model score.
type Ranked struct {
	Path  spath.Path
	Score float64
}

// ScoreBatch scores the candidates and returns the raw scores in input
// order: the fused batched path (ScoreBatchFused) at every batch size. With
// the plan's packed weights a one-path sweep beats the per-path reference
// too (BenchmarkScore: 74 vs 852 us at 20-40 hops, 18 vs 229 us at 5-12),
// so there is no small-batch fork.
func (m *Model) ScoreBatch(cands []spath.Path) []float64 { return m.ScoreBatchFused(cands) }

// ScoreBatchPerPath scores each candidate independently (in parallel) and
// returns the raw scores in input order — the reference implementation the
// fused path is tested against; nothing serves from it. Each worker writes a disjoint index, so the
// result is bitwise identical for any worker count.
func (m *Model) ScoreBatchPerPath(cands []spath.Path) []float64 {
	out := make([]float64, len(cands))
	par.For(len(cands), func(i int) {
		out[i] = m.Score(cands[i])
	})
	return out
}

// RankScored pairs candidates with externally computed scores and sorts
// them in descending score order. The stable sort keeps the result
// deterministic under ties. It is the ordering half of Rank, shared with
// callers that score through a batching layer. The slices must pair up:
// a mismatch means the scoring layer dropped or duplicated entries, and
// silently zipping them would rank candidates under the wrong scores.
func RankScored(cands []spath.Path, scores []float64) []Ranked {
	if len(scores) != len(cands) {
		panic(fmt.Sprintf("pathrank: RankScored got %d scores for %d candidates — the scoring layer returned a mismatched batch",
			len(scores), len(cands)))
	}
	out := make([]Ranked, len(cands))
	for i := range cands {
		out[i] = Ranked{Path: cands[i], Score: scores[i]}
	}
	slices.SortStableFunc(out, func(a, b Ranked) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0 // equal or NaN: keep the candidates' order
	})
	return out
}

// Rank scores the candidates in parallel and returns them in descending
// score order.
func (m *Model) Rank(cands []spath.Path) []Ranked {
	return RankScored(cands, m.ScoreBatch(cands))
}
