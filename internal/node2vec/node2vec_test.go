package node2vec

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

func TestAliasTableMatchesDistribution(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	table := newAliasTable(weights)
	rng := rand.New(rand.NewSource(1))
	const N = 200000
	counts := make([]int, len(weights))
	for i := 0; i < N; i++ {
		counts[table.sample(rng)]++
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for i, w := range weights {
		want := w / sum
		got := float64(counts[i]) / N
		if math.Abs(got-want) > 0.01 {
			t.Errorf("index %d: empirical %.4f, want %.4f", i, got, want)
		}
	}
}

func TestAliasTableSingleton(t *testing.T) {
	table := newAliasTable([]float64{5})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 100; i++ {
		if table.sample(rng) != 0 {
			t.Fatal("singleton table must always return 0")
		}
	}
}

func TestAliasTableZeroWeights(t *testing.T) {
	// Degenerate all-zero weights fall back to uniform without panicking.
	table := newAliasTable([]float64{0, 0, 0})
	rng := rand.New(rand.NewSource(3))
	seen := make(map[int]bool)
	for i := 0; i < 300; i++ {
		seen[table.sample(rng)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("uniform fallback should reach all indices, got %v", seen)
	}
}

func TestAliasTableProbabilityProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, 0, len(raw))
		for _, w := range raw {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				continue
			}
			weights = append(weights, math.Abs(w))
		}
		if len(weights) == 0 {
			return true
		}
		table := newAliasTable(weights)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 50; i++ {
			s := table.sample(rng)
			if s < 0 || s >= len(weights) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func smallNet(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.GenConfig{
		Rows: 8, Cols: 8, SpacingM: 200, JitterFrac: 0.2,
		RemoveFrac: 0.05, ArterialEvery: 4, Motorway: false,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 11,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

func TestGenerateWalksShapeAndValidity(t *testing.T) {
	g := smallNet(t)
	cfg := WalkConfig{WalksPerVertex: 2, WalkLength: 10, P: 1, Q: 0.5, Seed: 3}
	walks := GenerateWalks(g, cfg)
	if len(walks) != 2*g.NumVertices() {
		t.Fatalf("got %d walks, want %d", len(walks), 2*g.NumVertices())
	}
	for wi, walk := range walks {
		if len(walk) == 0 || len(walk) > cfg.WalkLength {
			t.Fatalf("walk %d has length %d", wi, len(walk))
		}
		for i := 1; i < len(walk); i++ {
			if _, ok := g.FindEdge(walk[i-1], walk[i]); !ok {
				t.Fatalf("walk %d step %d: no edge %d->%d", wi, i, walk[i-1], walk[i])
			}
		}
	}
}

func TestGenerateWalksCoverAllVertices(t *testing.T) {
	g := smallNet(t)
	walks := GenerateWalks(g, WalkConfig{WalksPerVertex: 1, WalkLength: 5, P: 1, Q: 1, Seed: 4})
	started := make(map[roadnet.VertexID]bool)
	for _, w := range walks {
		started[w[0]] = true
	}
	if len(started) != g.NumVertices() {
		t.Fatalf("walks start from %d vertices, want %d", len(started), g.NumVertices())
	}
}

func TestGenerateWalksDeterministic(t *testing.T) {
	g := smallNet(t)
	cfg := WalkConfig{WalksPerVertex: 1, WalkLength: 8, P: 2, Q: 0.5, Seed: 5}
	w1 := GenerateWalks(g, cfg)
	w2 := GenerateWalks(g, cfg)
	if len(w1) != len(w2) {
		t.Fatal("walk counts differ")
	}
	for i := range w1 {
		if len(w1[i]) != len(w2[i]) {
			t.Fatalf("walk %d length differs", i)
		}
		for j := range w1[i] {
			if w1[i][j] != w2[i][j] {
				t.Fatalf("walk %d step %d differs", i, j)
			}
		}
	}
}

func TestLowQExploresFurther(t *testing.T) {
	// With Q << 1 walks should wander farther from the start than with
	// Q >> 1 (DFS-like vs BFS-like bias), measured by unique vertices.
	g := smallNet(t)
	unique := func(q float64) float64 {
		walks := GenerateWalks(g, WalkConfig{WalksPerVertex: 3, WalkLength: 25, P: 1, Q: q, Seed: 6})
		var total float64
		for _, w := range walks {
			seen := make(map[roadnet.VertexID]bool)
			for _, v := range w {
				seen[v] = true
			}
			total += float64(len(seen))
		}
		return total / float64(len(walks))
	}
	far := unique(0.25)
	near := unique(4.0)
	if far <= near {
		t.Fatalf("low Q should visit more unique vertices: q=0.25 -> %.2f, q=4 -> %.2f", far, near)
	}
}

func TestTrainProducesFiniteVectors(t *testing.T) {
	g := smallNet(t)
	walks := GenerateWalks(g, WalkConfig{WalksPerVertex: 2, WalkLength: 12, P: 1, Q: 0.5, Seed: 7})
	emb := Train(g, walks, TrainConfig{Dim: 16, Window: 3, Negatives: 3, Epochs: 1, LR: 0.025, Seed: 8})
	if emb.NumVertices() != g.NumVertices() || emb.Dim != 16 {
		t.Fatalf("embeddings %dx%d, want %dx16", emb.NumVertices(), emb.Dim, g.NumVertices())
	}
	for v := 0; v < emb.NumVertices(); v++ {
		for _, x := range emb.Vector(roadnet.VertexID(v)) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("vertex %d has non-finite embedding", v)
			}
		}
	}
}

func TestEmbeddingsCaptureLocality(t *testing.T) {
	// Adjacent vertices should on average be more similar than random
	// distant pairs — the core property PathRank relies on.
	g := smallNet(t)
	emb := Embed(g,
		WalkConfig{WalksPerVertex: 6, WalkLength: 20, P: 1, Q: 0.5, Seed: 9},
		TrainConfig{Dim: 32, Window: 4, Negatives: 4, Epochs: 3, LR: 0.05, Seed: 10})

	rng := rand.New(rand.NewSource(11))
	var simAdj, simRand float64
	const trials = 300
	for i := 0; i < trials; i++ {
		v := roadnet.VertexID(rng.Intn(g.NumVertices()))
		outs := g.OutEdges(v)
		if len(outs) == 0 {
			continue
		}
		nb := g.Edge(outs[rng.Intn(len(outs))]).To
		simAdj += emb.Cosine(v, nb)
		simRand += emb.Cosine(v, roadnet.VertexID(rng.Intn(g.NumVertices())))
	}
	simAdj /= trials
	simRand /= trials
	if simAdj <= simRand+0.05 {
		t.Fatalf("adjacency similarity %.4f not above random %.4f", simAdj, simRand)
	}
}

func TestCosineBounds(t *testing.T) {
	e := &Embeddings{Dim: 2, Vecs: [][]float64{{1, 0}, {0, 1}, {1, 0}, {0, 0}}}
	if c := e.Cosine(0, 2); math.Abs(c-1) > 1e-12 {
		t.Fatalf("identical vectors cosine %v, want 1", c)
	}
	if c := e.Cosine(0, 1); math.Abs(c) > 1e-12 {
		t.Fatalf("orthogonal vectors cosine %v, want 0", c)
	}
	if c := e.Cosine(0, 3); c != 0 {
		t.Fatalf("zero vector cosine %v, want 0", c)
	}
}

func TestNearestNeighborsOnTrainedEmbeddings(t *testing.T) {
	g := smallNet(t)
	emb := Embed(g,
		WalkConfig{WalksPerVertex: 4, WalkLength: 15, P: 1, Q: 0.5, Seed: 13},
		TrainConfig{Dim: 16, Window: 3, Negatives: 3, Epochs: 2, LR: 0.05, Seed: 14})
	// The nearest embedding neighbors of a vertex should be geographically
	// close on average (locality property).
	v := roadnet.VertexID(g.NumVertices() / 2)
	var nn []roadnet.VertexID
	for u := 0; u < g.NumVertices(); u++ {
		if roadnet.VertexID(u) != v {
			nn = append(nn, roadnet.VertexID(u))
		}
	}
	sort.Slice(nn, func(a, b int) bool { return emb.Cosine(v, nn[a]) > emb.Cosine(v, nn[b]) })
	nn = nn[:5]
	var nnDist, randDist float64
	for i, n := range nn {
		nnDist += geo.Distance(g.Vertex(v).Point, g.Vertex(n).Point)
		far := roadnet.VertexID((int(v) + 7*(i+3)) % g.NumVertices())
		randDist += geo.Distance(g.Vertex(v).Point, g.Vertex(far).Point)
	}
	if nnDist >= randDist {
		t.Fatalf("embedding neighbors mean dist %.0f not below arbitrary picks %.0f", nnDist/5, randDist/5)
	}
}
