package pathrank

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/node2vec"
	"pathrank/internal/spath"
)

// labelled turns paths into one training query with arbitrary labels.
func labelled(rng *rand.Rand, paths []spath.Path) []dataset.Query {
	q := dataset.Query{}
	for _, p := range paths {
		q.Candidates = append(q.Candidates, dataset.Instance{
			Path: p, Label: rng.Float64(), LengthRatio: rng.Float64(), TimeRatio: rng.Float64(),
		})
	}
	return []dataset.Query{q}
}

// TestPlanFollowsWeights is the guard of the one thing the inference plan
// can get wrong: outliving the weights it was derived from. For every body
// it builds the plan (a fused score), changes the weights through each
// writer — a FineTune epoch under PR-A2 (embeddings move), Load of other
// weights, InitEmbeddings, and training a Clone — and requires the fused
// scores to be the per-path reference's bits again, and different from the
// scores before (so a writer that did nothing cannot pass).
func TestPlanFollowsWeights(t *testing.T) {
	const vocab = 40
	for _, body := range allBodies {
		t.Run(body.String(), func(t *testing.T) {
			cfg := Config{EmbeddingDim: 12, Hidden: 10, Variant: PRA2, Body: body, Seed: 5}
			m, err := New(vocab, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(31))
			paths := randomPaths(rng, 12, vocab, 25)
			queries := labelled(rng, paths)

			prev := m.ScoreBatchFused(paths)
			// moved scores with the plan the last step left behind, so a
			// writer that failed to drop it is caught here.
			moved := func(m *Model, what string) {
				t.Helper()
				requireFusedMatchesPerPath(t, m, paths, what)
				got := m.ScoreBatchFused(paths)
				same := true
				for i := range got {
					same = same && got[i] == prev[i]
				}
				if same {
					t.Fatalf("%s: scores did not move, the step tests nothing", what)
				}
				prev = got
			}

			if _, err := m.FineTune(queries, TrainConfig{Epochs: 1}); err != nil {
				t.Fatal(err)
			}
			moved(m, "after FineTune")

			otherCfg := cfg
			otherCfg.Seed = 6
			other, err := New(vocab, otherCfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := other.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := m.Load(&buf); err != nil {
				t.Fatal(err)
			}
			moved(m, "after Load")

			emb := &node2vec.Embeddings{Dim: cfg.EmbeddingDim, Vecs: make([][]float64, vocab)}
			for v := range emb.Vecs {
				emb.Vecs[v] = make([]float64, emb.Dim)
				for i := range emb.Vecs[v] {
					emb.Vecs[v][i] = rng.NormFloat64() * 0.3
				}
			}
			if err := m.InitEmbeddings(emb); err != nil {
				t.Fatal(err)
			}
			moved(m, "after InitEmbeddings")

			c, err := m.Clone()
			if err != nil {
				t.Fatal(err)
			}
			requireFusedMatchesPerPath(t, c, paths, "fresh Clone")
			if _, err := c.FineTune(queries, TrainConfig{Epochs: 1}); err != nil {
				t.Fatal(err)
			}
			moved(c, "trained Clone")
			requireFusedMatchesPerPath(t, m, paths, "original after its Clone trained")
		})
	}
}

// TestPlanServesWhileCloneTrains has the stream retrainer's shape, for the
// race detector: the serving model answers concurrent ScoreBatch calls —
// the first of which build its plan concurrently — while a clone of it
// fine-tunes, and the clone is scored once trained.
func TestPlanServesWhileCloneTrains(t *testing.T) {
	const vocab = 40
	m, err := New(vocab, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	paths := randomPaths(rng, 40, vocab, 25)
	queries := labelled(rng, paths)
	want := m.ScoreBatchPerPath(paths)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := m.ScoreBatch(paths)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("serving model: path %d scored %v, want %v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	c.Prepare()
	if _, err := c.FineTune(queries, TrainConfig{Epochs: 2}); err != nil {
		t.Fatal(err)
	}
	requireFusedMatchesPerPath(t, c, paths, "trained clone")
	wg.Wait()
}
