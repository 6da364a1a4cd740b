package pathrank_test

import (
	"context"
	"math"
	"testing"

	"pathrank"
	"pathrank/internal/node2vec"
)

// TestPublicAPIEndToEnd drives the complete documented workflow through
// the module-root facade: network generation, trip simulation, pipeline
// training, evaluation, and query-time ranking.
func TestPublicAPIEndToEnd(t *testing.T) {
	cfg := pathrank.DefaultNetworkConfig()
	cfg.Rows, cfg.Cols = 10, 10
	g, err := pathrank.GenerateNetwork(cfg)
	if err != nil {
		t.Fatalf("GenerateNetwork: %v", err)
	}
	pop := pathrank.NewPopulation(pathrank.PopulationConfig{NumDrivers: 10, Seed: 1})
	trips, err := pathrank.GenerateTrips(g, pop, pathrank.TripConfig{TripsPerDriver: 3, MinHops: 4, Seed: 2})
	if err != nil {
		t.Fatalf("GenerateTrips: %v", err)
	}

	pcfg := pathrank.DefaultPipelineConfig(12)
	pcfg.Model.Hidden = 10
	pcfg.Train.Epochs = 4
	pcfg.Walk = node2vec.WalkConfig{WalksPerVertex: 3, WalkLength: 10, P: 1, Q: 0.5, Seed: 3}
	pcfg.SGNS = node2vec.TrainConfig{Dim: 12, Window: 3, Negatives: 3, Epochs: 1, LR: 0.05, Seed: 4}
	pipe, err := pathrank.BuildPipeline(g, trips, pcfg)
	if err != nil {
		t.Fatalf("BuildPipeline: %v", err)
	}
	rep := pipe.Model.Evaluate(pipe.Test)
	if math.IsNaN(rep.MAE) || rep.NQueries == 0 {
		t.Fatalf("bad evaluation report: %v", rep)
	}

	ranker := pathrank.NewRanker(g, pipe.Model)
	resp, err := ranker.Rank(context.Background(), pathrank.RankRequest{Src: 0, Dst: pathrank.VertexID(g.NumVertices() - 1)})
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	ranked := resp.Paths
	if len(ranked) == 0 {
		t.Fatal("no ranked candidates")
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score+1e-12 {
			t.Fatal("ranked candidates not in descending score order")
		}
	}
}

// TestPublicAPIPathPrimitives exercises the shortest-path and similarity
// helpers on the facade.
func TestPublicAPIPathPrimitives(t *testing.T) {
	cfg := pathrank.DefaultNetworkConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := pathrank.GenerateNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := pathrank.VertexID(0), pathrank.VertexID(g.NumVertices()-1)
	sp, err := pathrank.ShortestPath(g, src, dst, pathrank.ByLength)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	topk, err := pathrank.TopKPaths(g, src, dst, 3, pathrank.ByLength)
	if err != nil || len(topk) == 0 {
		t.Fatalf("TopKPaths: %d paths, err=%v", len(topk), err)
	}
	if math.Abs(topk[0].Cost-sp.Cost) > 1e-9 {
		t.Fatal("first top-k path should equal the shortest path cost")
	}
	div, err := pathrank.DiversifiedTopKPaths(g, src, dst, 3, 0.8)
	if err != nil || len(div) == 0 {
		t.Fatalf("DiversifiedTopKPaths: %d paths, err=%v", len(div), err)
	}
	if s := pathrank.WeightedJaccard(g, sp, sp); s != 1 {
		t.Fatalf("WeightedJaccard(p,p) = %v, want 1", s)
	}
	fast, err := pathrank.ShortestPath(g, src, dst, pathrank.ByTime)
	if err != nil {
		t.Fatal(err)
	}
	if s := pathrank.WeightedJaccard(g, sp, fast); s < 0 || s > 1 {
		t.Fatalf("similarity %v outside [0,1]", s)
	}
}

// TestPublicAPIMapMatch exercises GPS sampling and map matching through
// the facade.
func TestPublicAPIMapMatch(t *testing.T) {
	cfg := pathrank.DefaultNetworkConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := pathrank.GenerateNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pathrank.ShortestPath(g, 0, pathrank.VertexID(g.NumVertices()/2), pathrank.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	recs := pathrank.SampleGPS(g, p, pathrank.GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: 5})
	if len(recs) < 2 {
		t.Fatalf("only %d GPS records", len(recs))
	}
	m := pathrank.NewMatcher(g, pathrank.MatchConfig{Candidates: 4, SigmaM: 40, BetaM: 25, StrideSec: 10})
	got, err := m.Match(recs)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	if s := pathrank.WeightedJaccard(g, got, p); s < 0.5 {
		t.Fatalf("matched overlap %.3f too low", s)
	}
}
