package node2vec

import (
	"math"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

func determinismTestGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 8, Cols: 8, SpacingM: 250, JitterFrac: 0.2,
		RemoveFrac: 0.05, ArterialEvery: 4, Motorway: false,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSerialWalksUnchangedByScratchBuffer guards the single-stream serial
// corpus: the scratch-buffer refactor must not change the RNG consumption
// pattern, so walks from the same seed must start at the same vertices and
// stay on the graph.
func TestSerialWalksUnchangedByScratchBuffer(t *testing.T) {
	g := determinismTestGraph(t)
	cfg := WalkConfig{WalksPerVertex: 2, WalkLength: 12, P: 1, Q: 0.5, Seed: 5}
	a := GenerateWalks(g, cfg)
	b := GenerateWalks(g, cfg)
	if len(a) != len(b) || len(a) != 2*g.NumVertices() {
		t.Fatalf("corpus sizes: %d vs %d, want %d", len(a), len(b), 2*g.NumVertices())
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("serial corpus not reproducible at walk %d step %d", i, j)
			}
		}
	}
}

// TestEmbeddingsDeterministicAcrossRuns: GenerateWalks plus Train is a pure
// function of the seeds, so repeat calls return bit-identical embeddings —
// the property every recorded table and artifact fingerprint rests on.
func TestEmbeddingsDeterministicAcrossRuns(t *testing.T) {
	g := determinismTestGraph(t)
	wc := WalkConfig{WalksPerVertex: 3, WalkLength: 15, P: 1, Q: 0.5, Seed: 6}
	tc := TrainConfig{Dim: 8, Window: 3, Negatives: 3, Epochs: 2, LR: 0.05, Seed: 7}
	want := Train(g, GenerateWalks(g, wc), tc)
	for run := 0; run < 2; run++ {
		got := Train(g, GenerateWalks(g, wc), tc)
		for v := range want.Vecs {
			for d, x := range want.Vecs[v] {
				if math.Float64bits(got.Vecs[v][d]) != math.Float64bits(x) {
					t.Fatalf("run %d: vertex %d dim %d = %.17g, first run %.17g", run, v, d, got.Vecs[v][d], x)
				}
			}
		}
	}
}
