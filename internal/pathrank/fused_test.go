package pathrank

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"pathrank/internal/nn"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

var allBodies = []Body{GRUBody, BiGRUBody, LSTMBody, MeanPoolBody, AttnGRUBody}

// randomPaths builds n random candidate paths over a vocab-vertex graph with
// lengths drawn from [1, maxLen], plus the edge cases the fused packer must
// handle: an empty path, a single-vertex path, and duplicated lengths (ties
// in the length sort).
func randomPaths(rng *rand.Rand, n, vocab, maxLen int) []spath.Path {
	paths := make([]spath.Path, 0, n+2)
	for i := 0; i < n; i++ {
		T := 1 + rng.Intn(maxLen)
		vs := make([]roadnet.VertexID, T)
		for t := range vs {
			vs[t] = roadnet.VertexID(rng.Intn(vocab))
		}
		paths = append(paths, spath.Path{Vertices: vs})
	}
	// Edge cases at fixed positions: empty (scores 0 on both paths) and
	// single-vertex.
	paths = append(paths, spath.Path{})
	paths = append(paths, spath.Path{Vertices: []roadnet.VertexID{roadnet.VertexID(rng.Intn(vocab))}})
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

// requireFusedMatchesPerPath fails unless the fused scores of paths are
// BIT-IDENTICAL (==, not approximately equal) to the per-path reference.
func requireFusedMatchesPerPath(t *testing.T, m *Model, paths []spath.Path, what string) {
	t.Helper()
	want := m.ScoreBatchPerPath(paths)
	got := m.ScoreBatchFused(paths)
	if len(got) != len(want) {
		t.Fatalf("%s: fused returned %d scores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: path %d of %d (len %d): fused %.17g != per-path %.17g",
				what, i, len(paths), len(paths[i].Vertices), got[i], want[i])
		}
	}
}

// TestScoreBatchFusedMatchesPerPath is the correctness gate of the fused
// batched scorer: on every registered kernel, across every Body kind (with
// and without the multi-task heads), hidden sizes that leave the vector
// kernel a column tail (10: N%4 = 2, attention width 5; 6: attention
// width 4, and its v is always N = 1), random path lengths from 1 to 80,
// empty paths, single-vertex paths, batches spanning several fused chunks
// and batches of 1 to 11 paths (both sides of the row count below which
// the avx2 kernel once fell back to the scalar tile), the fused scores must
// be bit-identical to the per-path reference, which multiplies through
// MatVec and never sees the kernels or the plan.
func TestScoreBatchFusedMatchesPerPath(t *testing.T) {
	orig := nn.KernelName()
	defer func() {
		if err := nn.SetKernel(orig); err != nil {
			t.Fatal(err)
		}
	}()
	shapes := []struct {
		hidden int
		lambda float64
	}{{10, 0}, {10, 0.3}, {6, 0}}
	for _, kernel := range nn.Kernels() {
		if err := nn.SetKernel(kernel); err != nil {
			t.Fatal(err)
		}
		for _, body := range allBodies {
			for _, sh := range shapes {
				name := fmt.Sprintf("%s/%v/hidden=%d/lambda=%v", kernel, body, sh.hidden, sh.lambda)
				t.Run(name, func(t *testing.T) {
					const vocab = 60
					m, err := New(vocab, Config{
						EmbeddingDim: 12, Hidden: sh.hidden, Variant: PRA2, Body: body,
						MultiTaskLambda: sh.lambda, Seed: int64(17 + int(body)),
					})
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(99 + int64(body)))
					for round := 0; round < 3; round++ {
						// 70 paths span 3 fused chunks; max length 80 exercises
						// the longest sequences the ranking core sees.
						requireFusedMatchesPerPath(t, m, randomPaths(rng, 70, vocab, 80), fmt.Sprintf("round %d", round))
					}
					small := randomPaths(rng, 9, vocab, 40)
					for n := 1; n <= len(small); n++ {
						requireFusedMatchesPerPath(t, m, small[:n], "small batch")
					}
				})
			}
		}
	}
}

// TestScoreBatchIsFusedAtEverySize checks that ScoreBatch agrees with the
// per-path reference from an empty batch up, including the one-path batch
// that used to be forked onto the per-path scorer.
func TestScoreBatchIsFusedAtEverySize(t *testing.T) {
	m, err := New(30, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	paths := randomPaths(rng, 8, 30, 20)
	perPath := m.ScoreBatchPerPath(paths)
	for n := 0; n <= len(paths); n++ {
		got := m.ScoreBatch(paths[:n])
		if len(got) != n {
			t.Fatalf("ScoreBatch of %d paths returned %d scores", n, len(got))
		}
		for i := range got {
			if got[i] != perPath[i] {
				t.Fatalf("batch of %d, path %d: ScoreBatch %v != per-path %v", n, i, got[i], perPath[i])
			}
		}
	}
}

// TestRankScoredLengthMismatchPanics pins the bugfix: a scoring layer that
// returns the wrong number of scores must fail loudly, not zip candidates
// against the wrong scores.
func TestRankScoredLengthMismatchPanics(t *testing.T) {
	cands := []spath.Path{
		{Vertices: []roadnet.VertexID{1, 2}},
		{Vertices: []roadnet.VertexID{3}},
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("RankScored accepted 1 score for 2 candidates")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "1 scores for 2 candidates") {
			t.Fatalf("panic message %q does not name the mismatch", msg)
		}
	}()
	RankScored(cands, []float64{0.5})
}

func TestRankScoredMatchedLengths(t *testing.T) {
	cands := []spath.Path{
		{Vertices: []roadnet.VertexID{1, 2}},
		{Vertices: []roadnet.VertexID{3}},
	}
	ranked := RankScored(cands, []float64{0.2, 0.9})
	if len(ranked) != 2 || ranked[0].Score != 0.9 || ranked[1].Score != 0.2 {
		t.Fatalf("unexpected ranking %+v", ranked)
	}
}

// TestScoreSteadyStateAllocs pins the pooled-forward-state bugfix: a warm
// Score must not allocate per-call id/embedding/summary buffers.
func TestScoreSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	m, err := New(40, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	paths := randomPaths(rng, 16, 40, 30)

	oldWorkers := EvalWorkers
	EvalWorkers = 1
	defer func() { EvalWorkers = oldWorkers }()

	// Warm the pools.
	for i := 0; i < 4; i++ {
		for _, p := range paths {
			m.Score(p)
		}
	}
	p := paths[0]
	if len(p.Vertices) == 0 {
		p = paths[1]
	}
	avg := testing.AllocsPerRun(50, func() { m.Score(p) })
	// The GRU cache header is the one steady-state allocation left; give it
	// one slack slot so the test pins the regression, not the GC's mood.
	if avg > 2 {
		t.Fatalf("Score allocates %.1f objects/op steady-state, want <= 2", avg)
	}
}

// TestScoreBatchFusedSteadyStateAllocs verifies the fused path runs on
// pooled scratch: a warm chunk-sized batch costs only the result slice.
func TestScoreBatchFusedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	m, err := New(40, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	paths := randomPaths(rng, fusedChunk-2, 40, 30)

	oldWorkers := EvalWorkers
	EvalWorkers = 1
	defer func() { EvalWorkers = oldWorkers }()

	for i := 0; i < 4; i++ {
		m.ScoreBatchFused(paths)
	}
	avg := testing.AllocsPerRun(50, func() { m.ScoreBatchFused(paths) })
	// One result slice per call, plus slack for a pool header.
	if avg > 3 {
		t.Fatalf("ScoreBatchFused allocates %.1f objects/op steady-state, want <= 3", avg)
	}
}

func benchScoreBatch(b *testing.B, fused bool) {
	m, err := New(200, Config{
		EmbeddingDim: 32, Hidden: 16, Variant: PRA2, Body: GRUBody, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	paths := make([]spath.Path, 0, 24)
	for i := 0; i < 24; i++ {
		T := 8 + rng.Intn(40)
		vs := make([]roadnet.VertexID, T)
		for t := range vs {
			vs[t] = roadnet.VertexID(rng.Intn(200))
		}
		paths = append(paths, spath.Path{Vertices: vs})
	}
	score := m.ScoreBatchFused
	if !fused {
		score = m.ScoreBatchPerPath
	}
	score(paths) // warm pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		score(paths)
	}
}

// BenchmarkScoreBatchFused measures the fused batched scorer on a
// serving-shaped batch (24 paths, lengths 8-48, the BenchmarkRankQuery
// model size). Compare against BenchmarkScoreBatchPerPath.
func BenchmarkScoreBatchFused(b *testing.B) { benchScoreBatch(b, true) }

// BenchmarkScoreBatchPerPath is the per-path reference for
// BenchmarkScoreBatchFused.
func BenchmarkScoreBatchPerPath(b *testing.B) { benchScoreBatch(b, false) }
