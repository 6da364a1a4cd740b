package pathrank

import (
	"context"
	"math"
	"testing"

	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

func TestScoreSingleVertexPath(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	for _, body := range []Body{GRUBody, BiGRUBody, LSTMBody, MeanPoolBody, AttnGRUBody} {
		cfg := smallConfig()
		cfg.Body = body
		m, err := New(w.g.NumVertices(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := spath.Path{Vertices: []roadnet.VertexID{3}}
		s := m.Score(p)
		if math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("%s: single-vertex score %v", body, s)
		}
	}
}

func TestModelDeterministicAcrossRuns(t *testing.T) {
	w := newTestWorld(t, 3, 1)
	build := func() float64 {
		m, err := New(w.g.NumVertices(), smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Train(w.queries, TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 9}); err != nil {
			t.Fatal(err)
		}
		return m.Score(w.queries[0].Candidates[0].Path)
	}
	if a, b := build(), build(); a != b {
		t.Fatalf("same seeds produced different scores: %v vs %v", a, b)
	}
}

func TestRankerDefaultsWhenUnconfigured(t *testing.T) {
	w := newTestWorld(t, 3, 1)
	m, _ := New(w.g.NumVertices(), smallConfig())
	r := &Ranker{Graph: w.g, Model: m} // zero-valued Candidates
	q := w.queries[0]
	resp, err := r.Rank(context.Background(), RankRequest{Src: q.Source, Dst: q.Destination})
	if err != nil {
		t.Fatalf("Rank with defaults: %v", err)
	}
	if len(resp.Paths) == 0 {
		t.Fatal("default ranker returned no candidates")
	}
}

func TestRankerUnreachableDestination(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	m, _ := New(w.g.NumVertices()+1, smallConfig())
	// Same-vertex query: K candidates degenerate to the empty path set; the
	// generator returns a single zero-length path.
	r := NewRanker(w.g, m)
	resp, err := r.Rank(context.Background(), RankRequest{Src: 0, Dst: 0})
	if err != nil {
		t.Fatalf("self query: %v", err)
	}
	if len(resp.Paths) == 0 {
		t.Fatal("self query should return the trivial path")
	}
}

func TestTrainLogfCallback(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	m, _ := New(w.g.NumVertices(), smallConfig())
	var lines int
	_, err := m.Train(w.queries, TrainConfig{
		Epochs: 3, LR: 0.005, ClipNorm: 5, Seed: 1,
		Logf: func(string, ...any) { lines++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if lines != 3 {
		t.Fatalf("Logf called %d times, want 3", lines)
	}
}

func TestTrainLRDecayStillConverges(t *testing.T) {
	w := newTestWorld(t, 3, 2)
	m, _ := New(w.g.NumVertices(), smallConfig())
	losses, err := m.Train(w.queries, TrainConfig{
		Epochs: 8, LR: 0.01, ClipNorm: 5, Seed: 1, LRDecay: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(losses[len(losses)-1] < losses[0]) {
		t.Fatalf("loss did not decrease with LR decay: %v", losses)
	}
}
