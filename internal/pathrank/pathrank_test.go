package pathrank

import (
	"bytes"
	"context"
	"math"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/node2vec"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// testWorld builds a small network, trips, and labeled queries shared by
// the integration tests in this package.
type testWorld struct {
	g       *roadnet.Graph
	trips   []traj.Trip
	queries []dataset.Query
}

func newTestWorld(t testing.TB, nDrivers, tripsPer int) *testWorld {
	t.Helper()
	cfg := roadnet.GenConfig{
		Rows: 10, Cols: 10, SpacingM: 250, JitterFrac: 0.2,
		RemoveFrac: 0.08, ArterialEvery: 4, Motorway: false,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 41,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: nDrivers, Seed: 42})
	trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{TripsPerDriver: tripsPer, MinHops: 4, Seed: 43})
	if err != nil {
		t.Fatalf("trips: %v", err)
	}
	queries, err := dataset.Generate(g, trips, dataset.Config{
		Strategy: dataset.DTkDI, K: 4, Threshold: 0.8, IncludeTruth: true,
	})
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	return &testWorld{g: g, trips: trips, queries: queries}
}

// smallConfig returns a model small enough for fast unit tests.
func smallConfig() Config {
	return Config{EmbeddingDim: 12, Hidden: 10, Variant: PRA2, Body: GRUBody, Seed: 7}
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(10, Config{EmbeddingDim: 0, Hidden: 4}); err == nil {
		t.Fatal("zero embedding dim should be rejected")
	}
	if _, err := New(0, smallConfig()); err == nil {
		t.Fatal("zero vocabulary should be rejected")
	}
	bad := smallConfig()
	bad.Body = Body(99)
	if _, err := New(10, bad); err == nil {
		t.Fatal("unknown body should be rejected")
	}
}

func TestVariantControlsEmbeddingFreezing(t *testing.T) {
	cfg := smallConfig()
	cfg.Variant = PRA1
	m1, err := New(20, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m1.emb.Table.Frozen {
		t.Fatal("PR-A1 embedding should be frozen")
	}
	cfg.Variant = PRA2
	m2, _ := New(20, cfg)
	if m2.emb.Table.Frozen {
		t.Fatal("PR-A2 embedding should be trainable")
	}
}

func TestScoreInUnitInterval(t *testing.T) {
	w := newTestWorld(t, 3, 2)
	m, err := New(w.g.NumVertices(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range w.queries {
		for _, c := range q.Candidates {
			s := m.Score(c.Path)
			if s < 0 || s > 1 || math.IsNaN(s) {
				t.Fatalf("score %v outside [0,1]", s)
			}
		}
	}
	if s := m.Score(spath.Path{}); s != 0 {
		t.Fatalf("empty path score %v, want 0", s)
	}
}

func TestInitEmbeddingsDimMismatch(t *testing.T) {
	m, _ := New(10, smallConfig())
	emb := &node2vec.Embeddings{Dim: 99, Vecs: make([][]float64, 10)}
	if err := m.InitEmbeddings(emb); err == nil {
		t.Fatal("dim mismatch should error")
	}
	emb2 := &node2vec.Embeddings{Dim: 12, Vecs: make([][]float64, 3)}
	if err := m.InitEmbeddings(emb2); err == nil {
		t.Fatal("vocab mismatch should error")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	w := newTestWorld(t, 4, 2)
	m, err := New(w.g.NumVertices(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	losses, err := m.Train(w.queries, TrainConfig{Epochs: 8, LR: 0.005, ClipNorm: 5, Seed: 1})
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(losses) != 8 {
		t.Fatalf("got %d loss entries, want 8", len(losses))
	}
	first, last := losses[0], losses[len(losses)-1]
	if !(last < first) {
		t.Fatalf("loss did not decrease: first %.5f last %.5f", first, last)
	}
	for _, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("non-finite loss %v", l)
		}
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	m, _ := New(w.g.NumVertices(), smallConfig())
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 0, LR: 0.01}); err == nil {
		t.Fatal("zero epochs should error")
	}
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 1, LR: 0}); err == nil {
		t.Fatal("zero LR should error")
	}
	if _, err := m.Train(nil, TrainConfig{Epochs: 1, LR: 0.01}); err == nil {
		t.Fatal("empty training set should error")
	}
}

func TestTrainedModelBeatsUntrained(t *testing.T) {
	if testing.Short() {
		t.Skip("generalization test skipped in -short mode")
	}
	w := newTestWorld(t, 16, 4)
	train, test := dataset.Split(w.queries, 0.25, 5)

	cfg := smallConfig()
	m, err := New(w.g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	emb := node2vec.Embed(w.g,
		node2vec.WalkConfig{WalksPerVertex: 6, WalkLength: 20, P: 1, Q: 0.5, Seed: 2},
		node2vec.TrainConfig{Dim: cfg.EmbeddingDim, Window: 4, Negatives: 4, Epochs: 2, LR: 0.05, Seed: 3})
	if err := m.InitEmbeddings(emb); err != nil {
		t.Fatal(err)
	}
	before := m.Evaluate(test)
	if _, err := m.Train(train, TrainConfig{Epochs: 15, LR: 0.003, ClipNorm: 5, Seed: 4}); err != nil {
		t.Fatal(err)
	}
	after := m.Evaluate(test)
	if !(after.MAE < before.MAE) {
		t.Fatalf("training did not reduce test MAE: before %.4f after %.4f", before.MAE, after.MAE)
	}
	if !(after.Tau > 0.1) {
		t.Fatalf("trained tau %.4f, want > 0.1", after.Tau)
	}
}

func TestRankOrdersByScore(t *testing.T) {
	w := newTestWorld(t, 3, 2)
	m, _ := New(w.g.NumVertices(), smallConfig())
	q := w.queries[0]
	paths := make([]spath.Path, len(q.Candidates))
	for i, c := range q.Candidates {
		paths[i] = c.Path
	}
	ranked := m.Rank(paths)
	if len(ranked) != len(paths) {
		t.Fatalf("ranked %d of %d", len(ranked), len(paths))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score+1e-12 {
			t.Fatal("ranked output not in descending score order")
		}
	}
}

func TestMultiTaskModelTrains(t *testing.T) {
	w := newTestWorld(t, 3, 2)
	cfg := smallConfig()
	cfg.MultiTaskLambda = 0.5
	m, err := New(w.g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.auxLen == nil || m.auxTime == nil {
		t.Fatal("multi-task heads missing")
	}
	losses, err := m.Train(w.queries, TrainConfig{Epochs: 5, LR: 0.005, ClipNorm: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(losses[len(losses)-1] < losses[0]) {
		t.Fatalf("multi-task loss did not decrease: %v", losses)
	}
}

func TestAllBodiesTrain(t *testing.T) {
	w := newTestWorld(t, 3, 1)
	for _, body := range []Body{GRUBody, BiGRUBody, LSTMBody, MeanPoolBody, AttnGRUBody} {
		cfg := smallConfig()
		cfg.Body = body
		m, err := New(w.g.NumVertices(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		losses, err := m.Train(w.queries, TrainConfig{Epochs: 3, LR: 0.005, ClipNorm: 5, Seed: 1})
		if err != nil {
			t.Fatalf("%s train: %v", body, err)
		}
		if math.IsNaN(losses[len(losses)-1]) {
			t.Fatalf("%s produced NaN loss", body)
		}
	}
}

func TestSaveLoadPreservesScores(t *testing.T) {
	w := newTestWorld(t, 3, 1)
	m, _ := New(w.g.NumVertices(), smallConfig())
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m2, _ := New(w.g.NumVertices(), smallConfig())
	if err := m2.Load(&buf); err != nil {
		t.Fatalf("Load: %v", err)
	}
	p := w.queries[0].Candidates[0].Path
	if math.Abs(m.Score(p)-m2.Score(p)) > 1e-12 {
		t.Fatal("loaded model scores differ")
	}
}

// TestFineTuneStartsFromFreshMoments: every Train or FineTune steps an
// optimizer of its own, so what a model ran before leaves no state behind
// but its weights. A trained model fine-tuned twice in place scores
// bit-identically to its clone, which carries the weights only,
// fine-tuned twice the same way.
func TestFineTuneStartsFromFreshMoments(t *testing.T) {
	w := newTestWorld(t, 3, 2)
	m, err := New(w.g.NumVertices(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	half := len(w.queries) / 2
	for _, x := range []*Model{m, c} {
		for i, qs := range [][]dataset.Query{w.queries[:half], w.queries[half:]} {
			if _, err := x.FineTune(qs, TrainConfig{Epochs: 1, Seed: int64(5 + i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for qi, q := range w.queries {
		for ci, cand := range q.Candidates {
			if a, b := m.Score(cand.Path), c.Score(cand.Path); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("query %d candidate %d: fine-tuned in place %v, its clone %v", qi, ci, a, b)
			}
		}
	}
}

func TestRankerQuery(t *testing.T) {
	w := newTestWorld(t, 4, 2)
	m, _ := New(w.g.NumVertices(), smallConfig())
	if _, err := m.Train(w.queries, TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	r := NewRanker(w.g, m)
	q := w.queries[0]
	resp, err := r.Rank(context.Background(), RankRequest{Src: q.Source, Dst: q.Destination})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	ranked := resp.Paths
	if len(ranked) == 0 {
		t.Fatal("no ranked candidates")
	}
	for _, rk := range ranked {
		if rk.Path.Source() != q.Source || rk.Path.Destination() != q.Destination {
			t.Fatal("ranked path has wrong endpoints")
		}
	}
	// TkDI strategy path too.
	r.Candidates = dataset.Config{Strategy: dataset.TkDI, K: 3}
	resp2, err := r.Rank(context.Background(), RankRequest{Src: q.Source, Dst: q.Destination})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Paths) == 0 {
		t.Fatal("TkDI query returned nothing")
	}
}

// pipelineFingerprint is the fingerprint of the model BuildPipeline trains
// in TestBuildPipelineEndToEnd, as the build that split labeled queries
// rather than trips computed it: splitting trips first moves no bit while
// no trip is unroutable.
const pipelineFingerprint = "cade44864f0f1cf28b197be0210261dd994382aa054cf82dc0d10ffc26d48ec9"

func TestBuildPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	w := newTestWorld(t, 5, 2)
	cfg := PipelineConfig{
		Walk: node2vec.WalkConfig{WalksPerVertex: 3, WalkLength: 12, P: 1, Q: 0.5, Seed: 1},
		SGNS: node2vec.TrainConfig{Dim: 12, Window: 3, Negatives: 3, Epochs: 1, LR: 0.05, Seed: 1},
		Data: dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8, IncludeTruth: true},
		Model: Config{
			EmbeddingDim: 12, Hidden: 10, Variant: PRA2, Body: GRUBody, Seed: 1,
		},
		Train:     TrainConfig{Epochs: 6, LR: 0.005, ClipNorm: 5, Seed: 1},
		TestFrac:  0.3,
		SplitSeed: 2,
	}
	pipe, err := BuildPipeline(w.g, w.trips, cfg)
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	if len(pipe.Test) == 0 || len(pipe.Train) == 0 {
		t.Fatal("empty split")
	}
	if fp, err := pipe.Model.FingerprintHex(); err != nil || fp != pipelineFingerprint {
		t.Fatalf("pipeline model fingerprint %s (%v), pinned %s", fp, err, pipelineFingerprint)
	}
	rep := pipe.Model.Evaluate(pipe.Test)
	if rep.NQueries != len(pipe.Test) {
		t.Fatalf("evaluated %d queries, want %d", rep.NQueries, len(pipe.Test))
	}
	if math.IsNaN(rep.MAE) || rep.MAE > 0.6 {
		t.Fatalf("pipeline MAE %.4f looks broken", rep.MAE)
	}
}

func TestBuildPipelineRejectsDimMismatch(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	cfg := DefaultPipelineConfig(16)
	cfg.Model.EmbeddingDim = 32 // now SGNS.Dim=16 != model 32
	if _, err := BuildPipeline(w.g, w.trips, cfg); err == nil {
		t.Fatal("dim mismatch should be rejected")
	}
}

func TestVariantAndBodyStrings(t *testing.T) {
	if PRA1.String() != "PR-A1" || PRA2.String() != "PR-A2" {
		t.Fatal("variant names wrong")
	}
	if GRUBody.String() != "gru" || MeanPoolBody.String() != "meanpool" || AttnGRUBody.String() != "attn-gru" {
		t.Fatal("body names wrong")
	}
}

func TestNumParamsPositiveAndGrowsWithM(t *testing.T) {
	small, _ := New(50, Config{EmbeddingDim: 8, Hidden: 8, Variant: PRA2, Body: GRUBody})
	big, _ := New(50, Config{EmbeddingDim: 16, Hidden: 8, Variant: PRA2, Body: GRUBody})
	if small.NumParams() <= 0 || big.NumParams() <= small.NumParams() {
		t.Fatalf("param counts: small %d big %d", small.NumParams(), big.NumParams())
	}
}
