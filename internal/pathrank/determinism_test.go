package pathrank

import (
	"math/rand"
	"runtime"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

func detWorld(t *testing.T) (*roadnet.Graph, []dataset.Query) {
	t.Helper()
	w := newTestWorld(t, 8, 3)
	return w.g, w.queries
}

// TestEvaluateParallelBitwiseDeterministic asserts the data-parallel
// Evaluate path produces bitwise-identical metrics to the serial path; the
// worker count follows GOMAXPROCS.
func TestEvaluateParallelBitwiseDeterministic(t *testing.T) {
	g, queries := detWorld(t)
	cfg := Config{EmbeddingDim: 12, Hidden: 8, Variant: PRA2, Body: GRUBody, Seed: 3}
	m, err := New(g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Random weights are fine: determinism is about scheduling, not fit.
	rng := rand.New(rand.NewSource(9))
	for _, p := range m.params {
		for i := range p.W {
			p.W[i] = (rng.Float64()*2 - 1) * 0.3
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := m.Evaluate(queries)
	for _, workers := range []int{2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		got := m.Evaluate(queries)
		if got != serial {
			t.Fatalf("Evaluate with %d workers = %+v, serial = %+v", workers, got, serial)
		}
	}
}

// TestRankParallelBitwiseDeterministic asserts parallel Rank ordering and
// scores match the serial path exactly.
func TestRankParallelBitwiseDeterministic(t *testing.T) {
	g, queries := detWorld(t)
	cfg := Config{EmbeddingDim: 12, Hidden: 8, Variant: PRA2, Body: GRUBody, Seed: 3}
	m, err := New(g.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	for _, p := range m.params {
		for i := range p.W {
			p.W[i] = (rng.Float64()*2 - 1) * 0.3
		}
	}
	var cands []spath.Path
	for _, q := range queries {
		for _, c := range q.Candidates {
			cands = append(cands, c.Path)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	serial := m.Rank(cands)
	runtime.GOMAXPROCS(4)
	parallel := m.Rank(cands)
	if len(serial) != len(parallel) {
		t.Fatalf("rank lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Score != parallel[i].Score || !serial[i].Path.Equal(parallel[i].Path) {
			t.Fatalf("rank entry %d differs between serial and parallel", i)
		}
	}
}
