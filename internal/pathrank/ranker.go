package pathrank

import (
	"fmt"
	"sync"

	"pathrank/internal/dataset"
	"pathrank/internal/node2vec"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// Ranker is the end-user facade: given an origin and a destination it
// generates candidate paths with the advanced-routing component and returns
// them ranked by the trained model, mirroring the paper's deployment
// scenario (a navigation service proposing ranked alternatives).
type Ranker struct {
	Graph *roadnet.Graph
	Model *Model
	// Candidates controls candidate generation for queries; defaults are
	// used when zero-valued.
	Candidates dataset.Config
	// Engine is a plain Dijkstra point query under the length metric when
	// the ranker came from Artifact.NewRanker, else nil. Ranking does not
	// use it. Kept only because benchmark/ names it; ROADMAP item 4 removes
	// it.
	Engine spath.Engine

	// tables holds each metric's edge-weight table (length, time), built
	// on the metric's first query and shared read-only by every later one.
	// Graph must not change once the ranker has ranked.
	tables [2]weightTable
}

// weightTable is one metric's lazily built table.
type weightTable struct {
	once sync.Once
	wts  []float64
}

// Weights returns the edge-weight table of metric w (WeightAuto is
// length), indexed by edge ID, building it on first use. Candidate
// generation and a shard worker's sub-query sweeps read it; callers must
// not write to it.
func (r *Ranker) Weights(w WeightKind) []float64 {
	t := &r.tables[0]
	if w == WeightTime {
		t = &r.tables[1]
	}
	t.once.Do(func() { t.wts = spath.WeightTable(r.Graph, w.Weight()) })
	return t.wts
}

// NewRanker wraps a trained model for query-time use.
func NewRanker(g *roadnet.Graph, m *Model) *Ranker {
	return &Ranker{Graph: g, Model: m, Candidates: dataset.DefaultConfig()}
}

// PipelineConfig bundles every stage of the end-to-end PathRank build: the
// spatial-network embedding, training-data generation, the model, and the
// training loop.
type PipelineConfig struct {
	Walk      node2vec.WalkConfig
	SGNS      node2vec.TrainConfig
	Data      dataset.Config
	Model     Config
	Train     TrainConfig
	TestFrac  float64
	SplitSeed int64
}

// DefaultPipelineConfig returns a complete medium-scale configuration with
// embedding size m.
func DefaultPipelineConfig(m int) PipelineConfig {
	sg := node2vec.DefaultTrainConfig(m)
	mc := DefaultConfig()
	mc.EmbeddingDim = m
	return PipelineConfig{
		Walk:      node2vec.DefaultWalkConfig(),
		SGNS:      sg,
		Data:      dataset.DefaultConfig(),
		Model:     mc,
		Train:     DefaultTrainConfig(),
		TestFrac:  0.25,
		SplitSeed: 1,
	}
}

// Pipeline holds the artifacts of an end-to-end build.
type Pipeline struct {
	Embeddings *node2vec.Embeddings
	Model      *Model
	Train      []dataset.Query
	Test       []dataset.Query
	Losses     []float64
}

// BuildPipeline runs the full PathRank construction from a road network and
// a trip log: node2vec embedding, a trip-level train/test split, candidate
// generation and labeling of each half, and model training through Fit.
func BuildPipeline(g *roadnet.Graph, trips []traj.Trip, cfg PipelineConfig) (*Pipeline, error) {
	if cfg.SGNS.Dim != cfg.Model.EmbeddingDim {
		return nil, fmt.Errorf("pathrank: node2vec dim %d != model embedding dim %d",
			cfg.SGNS.Dim, cfg.Model.EmbeddingDim)
	}
	emb := node2vec.Embed(g, cfg.Walk, cfg.SGNS)
	trainTrips, testTrips := dataset.Split(trips, cfg.TestFrac, cfg.SplitSeed)
	train, err := dataset.Generate(g, trainTrips, cfg.Data)
	if err != nil {
		return nil, err
	}
	var test []dataset.Query
	if len(testTrips) > 0 {
		if test, err = dataset.Generate(g, testTrips, cfg.Data); err != nil {
			return nil, err
		}
	}
	model, losses, err := Fit(g.NumVertices(), emb, train, cfg.Model, cfg.Train)
	if err != nil {
		return nil, err
	}
	return &Pipeline{Embeddings: emb, Model: model, Train: train, Test: test, Losses: losses}, nil
}
