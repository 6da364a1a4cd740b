// Micro benchmarks for the substrates and the served hot paths. They are
// timing tools: the allocations of the same paths are pinned exactly by
// TestAllocPins and the packages' own allocation tests, and the paper's
// tables are re-derived by cmd/experiments (the quick world is checked
// byte for byte by internal/experiments' golden test).
package pathrank_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"pathrank"

	"pathrank/internal/geo"
	"pathrank/internal/nn"
	"pathrank/internal/node2vec"
	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// --- Substrate micro benchmarks ---

func microGraph(b testing.TB) *roadnet.Graph {
	b.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 20, Cols: 25, SpacingM: 250, JitterFrac: 0.25,
		RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
		Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// microPairs is the fixed input of the micro query rows: 32
// origin-destination pairs over numVertices vertices, drawn from seed.
func microPairs(numVertices int, seed int64) [][2]roadnet.VertexID {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([][2]roadnet.VertexID, 32)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{roadnet.VertexID(rng.Intn(numVertices)), roadnet.VertexID(rng.Intn(numVertices))}
	}
	return pairs
}

// BenchmarkDijkstra measures one shortest-path query on the experiment
// network.
func BenchmarkDijkstra(b *testing.B) {
	g := microGraph(b)
	pairs := microPairs(g.NumVertices(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, _ = spath.Dijkstra(g, p[0], p[1], spath.ByLength)
	}
}

// BenchmarkTopK5 measures Yen's algorithm for k=5 (TkDI generation cost).
func BenchmarkTopK5(b *testing.B) {
	g := microGraph(b)
	pairs := microPairs(g.NumVertices(), 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, _ = spath.TopK(g, p[0], p[1], 5, spath.ByLength)
	}
}

// BenchmarkDiversifiedTopK5 measures D-TkDI generation cost.
func BenchmarkDiversifiedTopK5(b *testing.B) {
	g := microGraph(b)
	sim := pathsim.WeightedJaccardSim(g)
	pairs := microPairs(g.NumVertices(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, _ = spath.DiversifiedTopK(g, p[0], p[1], 5, spath.ByLength, sim, 0.8, 50)
	}
}

// BenchmarkWeightedJaccard measures the ground-truth label function in its
// hot-path form: the scratch-owning Similarity closure that candidate
// generation and labeling use (zero allocations per call by construction —
// the one-shot WeightedJaccard function adds only a scratch-pool
// round-trip).
func BenchmarkWeightedJaccard(b *testing.B) {
	g := microGraph(b)
	p1, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), spath.ByLength)
	if err != nil {
		b.Fatal(err)
	}
	p2, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), spath.ByTime)
	if err != nil {
		b.Fatal(err)
	}
	sim := pathsim.WeightedJaccardSim(g)
	sim(p1, p2) // size the scratch outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sim(p1, p2)
	}
}

// BenchmarkNode2vecWalks measures biased-walk generation.
func BenchmarkNode2vecWalks(b *testing.B) {
	g := microGraph(b)
	cfg := node2vec.WalkConfig{WalksPerVertex: 1, WalkLength: 20, P: 1, Q: 0.5, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = node2vec.GenerateWalks(g, cfg)
	}
}

// BenchmarkGRUForwardBackward measures one training step of the recurrent
// body at paper scale (M=128 inputs, 20-step sequence).
func BenchmarkGRUForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	gru := nn.NewGRU("bench", 128, 32, rng)
	xs := make([]nn.Vec, 20)
	for t := range xs {
		xs[t] = make(nn.Vec, 128)
		for i := range xs[t] {
			xs[t][i] = rng.NormFloat64() * 0.1
		}
	}
	dhs := make([]nn.Vec, len(xs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs, cache := gru.Forward(xs)
		dhs[len(hs)-1] = hs[len(hs)-1]
		gru.Backward(cache, dhs)
		cache.Release()
		for _, p := range gru.Params() {
			p.ZeroGrad()
		}
	}
}

// BenchmarkDiversifiedTopK5Table measures D-TkDI generation on a prebuilt
// weight table — the serving path's candidate generator.
func BenchmarkDiversifiedTopK5Table(b *testing.B) {
	g := microGraph(b)
	wts := spath.WeightTable(g, spath.ByLength)
	sim := pathsim.WeightedJaccardSim(g)
	pairs := microPairs(g.NumVertices(), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, _, _ = spath.DiversifiedTopKStatsCtx(context.Background(), g, wts, nil, p[0], p[1], 5, sim, 0.8, 50)
	}
}

// The world the repository benchmark serves (benchmark/world.go: 56x56
// DefaultGenConfig, seed 1), built once.
const servedSide = 56

var (
	servedOnce  sync.Once
	servedGraph *roadnet.Graph
	servedErr   error
)

func servedWorld(b testing.TB) *roadnet.Graph {
	b.Helper()
	servedOnce.Do(func() {
		cfg := roadnet.DefaultGenConfig()
		cfg.Rows, cfg.Cols, cfg.Seed = servedSide, servedSide, 1
		servedGraph, servedErr = roadnet.Generate(cfg)
	})
	if servedErr != nil {
		b.Fatal(servedErr)
	}
	return servedGraph
}

// servedShapes are the benchmark's two query shapes: "crosstown" is 200
// fixed pairs 20-40 grid hops apart under D-TkDI k=5 theta=0.8
// (crosstown_uncached); "local_k32" is 200 fixed pairs 5-12 hops apart
// under TkDI k=32 (local_batch_k32's items). Every served query, a batch
// item included, is scored in a sweep of its own.
var servedShapes = []struct {
	name  string
	pairs [][2]roadnet.VertexID
	cands pathrank.DataConfig
}{
	{"crosstown", gridPairs(1, 200, 20, 40), pathrank.DataConfig{Strategy: pathrank.DTkDI, K: 5, Threshold: 0.8}},
	{"local_k32", gridPairs(2, 200, 5, 12), pathrank.DataConfig{Strategy: pathrank.TkDI, K: 32}},
}

// gridPairs draws n origin-destination cells of the served world whose
// grid distance steps through [lo, hi]; roadnet.Generate numbers the grid
// row-major.
func gridPairs(seed int64, n, lo, hi int) [][2]roadnet.VertexID {
	const side = servedSide
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]roadnet.VertexID, 0, n)
	for len(out) < n {
		hops := lo + len(out)%(hi-lo+1)
		dr := rng.Intn(min(hops, side-1) + 1)
		dc := hops - dr
		r0, c0 := rng.Intn(side), rng.Intn(side)
		r1, c1 := r0+dr*(1-2*rng.Intn(2)), c0+dc*(1-2*rng.Intn(2))
		if dc >= side || r1 < 0 || r1 >= side || c1 < 0 || c1 >= side {
			continue
		}
		out = append(out, [2]roadnet.VertexID{roadnet.VertexID(r0*side + c0), roadnet.VertexID(r1*side + c1)})
	}
	return out
}

// BenchmarkCandidates is one served candidate generation
// (Ranker.CandidatesFor, what pathrank-serve runs on a cache miss) per
// iteration, on the served world, for each served shape.
func BenchmarkCandidates(b *testing.B) {
	g := servedWorld(b)
	for _, load := range servedShapes {
		r := pathrank.NewRanker(g, nil)
		r.Candidates = load.cands
		b.Run(load.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := load.pairs[i%len(load.pairs)]
				cands, _, err := r.CandidatesFor(context.Background(), pathrank.RankRequest{Src: p[0], Dst: p[1]})
				if err != nil || len(cands) == 0 {
					b.Fatalf("%d->%d: %d candidates, err %v", p[0], p[1], len(cands), err)
				}
			}
		})
	}
}

// servedModel is the benchmark's model (embedding 128, hidden 64, GRU;
// untrained weights cost the same to score) over numVertices vertices.
func servedModel(b testing.TB, numVertices int) *pathrank.Model {
	b.Helper()
	m, err := pathrank.NewModel(numVertices, pathrank.ModelConfig{
		EmbeddingDim: 128, Hidden: 64, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// servedSweeps generates, for one served shape, the candidate set each
// pair's query scores in one sweep (5 paths x 20-40 hops on crosstown,
// 32 x 5-12 on local_k32).
func servedSweeps(b testing.TB, shape int) [][]spath.Path {
	b.Helper()
	g := servedWorld(b)
	load := servedShapes[shape]
	r := pathrank.NewRanker(g, nil)
	r.Candidates = load.cands
	sweeps := make([][]spath.Path, len(load.pairs))
	for i, p := range load.pairs {
		cands, _, err := r.CandidatesFor(context.Background(), pathrank.RankRequest{Src: p[0], Dst: p[1]})
		if err != nil {
			b.Fatal(err)
		}
		sweeps[i] = cands
	}
	return sweeps
}

// sharedStepShare is the share of the sweeps' path-steps that repeat a
// prefix already stepped in the same scoring chunk — the work the fused
// scorer's prefix trie skips, a property of the input: each sweep's
// non-empty paths in lexicographic order, cut every 32 paths (the fused
// chunk), with each chunk's distinct prefixes counted by a map.
func sharedStepShare(sweeps [][]spath.Path) float64 {
	const chunk = 32
	steps, distinct := 0, 0
	for _, sweep := range sweeps {
		var seqs [][]roadnet.VertexID
		for _, p := range sweep {
			if len(p.Vertices) > 0 {
				seqs = append(seqs, p.Vertices)
			}
		}
		slices.SortFunc(seqs, slices.Compare)
		for lo := 0; lo < len(seqs); lo += chunk {
			seen := map[string]bool{}
			for _, s := range seqs[lo:min(lo+chunk, len(seqs))] {
				steps += len(s)
				for t := 1; t <= len(s); t++ {
					seen[fmt.Sprint(s[:t])] = true
				}
			}
			distinct += len(seen)
		}
	}
	return 1 - float64(distinct)/float64(steps)
}

// BenchmarkScoreBatchFused measures one served scoring sweep per iteration
// at the two served shapes, on the benchmark's model and real candidate
// sets; paths/op says how many paths a sweep held, shared_step_share how
// much of their work the prefix trie skips (≈0.32 crosstown, ≈0.53
// local_k32).
func BenchmarkScoreBatchFused(b *testing.B) {
	g := servedWorld(b)
	m := servedModel(b, g.NumVertices())
	for shape, load := range servedShapes {
		sweeps := servedSweeps(b, shape)
		share := sharedStepShare(sweeps)
		b.Run(load.name, func(b *testing.B) {
			m.ScoreBatchFused(sweeps[0]) // warm the pools and the plan
			paths := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep := sweeps[i%len(sweeps)]
				paths += len(sweep)
				m.ScoreBatchFused(sweep)
			}
			b.ReportMetric(float64(paths)/float64(b.N), "paths/op")
			b.ReportMetric(share, "shared_step_share")
		})
	}
}

// BenchmarkScore measures a one-path ScoreBatch both ways — the fused sweep
// and the per-path reference — which is what decides whether
// Model.ScoreBatch needs a small-batch fork.
func BenchmarkScore(b *testing.B) {
	g := servedWorld(b)
	m := servedModel(b, g.NumVertices())
	for shape, load := range servedShapes {
		sweeps := servedSweeps(b, shape)
		for _, way := range []struct {
			name  string
			score func([]spath.Path) []float64
		}{{"fused", m.ScoreBatchFused}, {"per_path", m.ScoreBatchPerPath}} {
			b.Run(load.name+"/"+way.name, func(b *testing.B) {
				way.score(sweeps[0][:1])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					way.score(sweeps[i%len(sweeps)][:1])
				}
			})
		}
	}
}

// BenchmarkPlanBuild measures Model.Prepare from nothing — what a model
// pays once per weight generation before it serves — on the benchmark
// world's vocabulary and on `netgen -metro`'s (160x160, ~25k vertices).
func BenchmarkPlanBuild(b *testing.B) {
	g := servedWorld(b)
	metro := roadnet.DefaultGenConfig()
	metro.Rows, metro.Cols, metro.SpacingM = 160, 160, 120
	mg, err := roadnet.Generate(metro)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []int{g.NumVertices(), mg.NumVertices()} {
		m := servedModel(b, v)
		b.Run(fmt.Sprintf("V=%d", v), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := m.Clone() // a clone starts without a plan
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				c.Prepare()
			}
		})
	}
}

// --- Query API v2 guard benchmarks ---

var (
	queryRankerOnce sync.Once
	queryRanker     *pathrank.Ranker
)

// benchQueryRanker builds a ranker over the experiment network with a
// seeded (untrained) model — scoring cost is weight-independent, so the
// ctx-overhead comparison below does not need a training run.
func benchQueryRanker(b testing.TB) *pathrank.Ranker {
	b.Helper()
	queryRankerOnce.Do(func() {
		g := microGraph(b)
		m, err := pathrank.NewModel(g.NumVertices(), pathrank.ModelConfig{
			EmbeddingDim: 32, Hidden: 16, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		queryRanker = pathrank.NewRanker(g, m)
		queryRanker.Candidates = pathrank.DataConfig{
			Strategy: pathrank.DTkDI, K: 5, Threshold: 0.8, MaxProbe: 50,
		}
	})
	return queryRanker
}

// BenchmarkRankQuery measures Ranker.Rank under context.Background, which
// never fires — the no-cancellation baseline of the pair below.
func BenchmarkRankQuery(b *testing.B) {
	r := benchQueryRanker(b)
	n := r.Graph.NumVertices()
	ctx := context.Background()
	pairs := microPairs(n, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, _ = r.Rank(ctx, pathrank.RankRequest{Src: p[0], Dst: p[1]})
	}
}

// BenchmarkRankWithContext measures Ranker.Rank with a live cancelable
// context — the v2 hot path with amortized cancellation checks armed.
// Guard: ns/op within 2% of BenchmarkRankQuery and identical allocs/op
// (the ctx plumbing must be free when the context never fires).
func BenchmarkRankWithContext(b *testing.B) {
	r := benchQueryRanker(b)
	n := r.Graph.NumVertices()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pairs := microPairs(n, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		_, _ = r.Rank(ctx, pathrank.RankRequest{Src: p[0], Dst: p[1]})
	}
}

// BenchmarkMapMatch measures HMM map matching of one noisy 1 Hz trace.
func BenchmarkMapMatch(b *testing.B) {
	g := microGraph(b)
	p, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()/2), spath.ByLength)
	if err != nil {
		b.Fatal(err)
	}
	recs := traj.SampleGPS(g, p, traj.GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: 1})
	m := traj.NewMatcher(g, traj.DefaultMatchConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(recs); err != nil {
			b.Fatal(err)
		}
	}
}
