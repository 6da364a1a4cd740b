package pathrank

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

var allBodies = []Body{GRUBody, BiGRUBody, LSTMBody, MeanPoolBody, AttnGRUBody}

// randomPaths builds n random candidate paths over a vocab-vertex graph with
// lengths drawn from [1, maxLen], plus an empty and a single-vertex path.
// Vertices are drawn independently, so the paths share little beyond a
// first vertex: the no-sharing end of the fused layout.
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

// branchingPaths builds n candidate paths (maxLen >= 8) that share prefixes
// the way Yen's deviations do — suffixes instead when reversed, the
// sharing the BiGRU backward direction reads: each path copies the first
// 0 to all vertices of an earlier one and continues with 0 or more fresh
// vertices, so duplicates and proper prefixes occur too. Added are the
// shapes the trie layout must get right, at random positions: an exact
// duplicate, a proper prefix of the longest path, four paths sharing only
// their first vertex, fusedChunk+6 paths sharing six vertices (they
// straddle a chunk boundary), an empty and a single-vertex path.
func branchingPaths(rng *rand.Rand, n, vocab, maxLen int, reversed bool) []spath.Path {
	fresh := func(k int) []roadnet.VertexID {
		vs := make([]roadnet.VertexID, k)
		for i := range vs {
			vs[i] = roadnet.VertexID(rng.Intn(vocab))
		}
		return vs
	}
	var seqs [][]roadnet.VertexID
	for len(seqs) < n {
		var head []roadnet.VertexID
		if len(seqs) > 0 && rng.Intn(4) > 0 {
			src := seqs[rng.Intn(len(seqs))]
			head = src[:rng.Intn(len(src)+1)]
		}
		more := rng.Intn(maxLen - len(head) + 1)
		if len(head) == 0 {
			more = max(more, 1)
		}
		seqs = append(seqs, slices.Concat(head, fresh(more)))
	}
	longest := slices.MaxFunc(seqs, func(a, b []roadnet.VertexID) int { return len(a) - len(b) })
	seqs = append(seqs, slices.Clone(seqs[0]), longest[:len(longest)/2], nil, fresh(1))
	first := fresh(1)
	for i := range 4 {
		seqs = append(seqs, slices.Concat(first, []roadnet.VertexID{roadnet.VertexID(i)}, fresh(rng.Intn(maxLen-1))))
	}
	stem := fresh(6)
	for range fusedChunk + 6 {
		seqs = append(seqs, slices.Concat(stem, fresh(rng.Intn(maxLen-6))))
	}
	paths := make([]spath.Path, len(seqs))
	for i, vs := range seqs {
		vs = slices.Clone(vs)
		if reversed {
			slices.Reverse(vs)
		}
		paths[i] = spath.Path{Vertices: vs}
	}
	rng.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

// yenSweeps returns real candidate output on a small generated grid: one
// sweep of eight TkDI k=32 queries and one of eight D-TkDI k=5 queries,
// each the concatenation of its queries' candidate sets, as a batched
// request scores them.
func yenSweeps(t testing.TB, g *roadnet.Graph) [][]spath.Path {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	var sweeps [][]spath.Path
	for _, cfg := range []dataset.Config{
		{Strategy: dataset.TkDI, K: 32},
		{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
	} {
		var sweep []spath.Path
		for queries := 0; queries < 8; {
			src := roadnet.VertexID(rng.Intn(g.NumVertices()))
			dst := roadnet.VertexID(rng.Intn(g.NumVertices()))
			if src == dst {
				continue
			}
			cands, _, err := cfg.Candidates(context.Background(), g, nil, spath.ByLength, nil, src, dst)
			if err != nil {
				continue // an unreachable pair
			}
			sweep = append(sweep, cands...)
			queries++
		}
		sweeps = append(sweeps, sweep)
	}
	return sweeps
}

// testGrid is the small generated road network of yenSweeps (100 vertices).
func testGrid(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 10, Cols: 10, SpacingM: 250, JitterFrac: 0.2, RemoveFrac: 0.08,
		ArterialEvery: 4, Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requireFusedMatchesPerPath fails unless the fused scores of paths are
// BIT-IDENTICAL (equal Float64bits, not approximately equal) to the
// per-path reference.
func requireFusedMatchesPerPath(t *testing.T, m *Model, paths []spath.Path, what string) {
	t.Helper()
	want := m.ScoreBatchPerPath(paths)
	got := m.ScoreBatchFused(paths)
	if len(got) != len(want) {
		t.Fatalf("%s: fused returned %d scores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: path %d of %d (len %d): fused %.17g != per-path %.17g",
				what, i, len(paths), len(paths[i].Vertices), got[i], want[i])
		}
	}
}

// TestScoreBatchFusedMatchesPerPath is the correctness gate of the fused
// batched scorer: across every Body kind (with and without the multi-task
// heads), hidden sizes that leave the vector kernel a column tail (10:
// N%4 = 2, attention width 5; 6: attention width 4, and its v is always
// N = 1), random path lengths from 1 to 80, empty paths, single-vertex
// paths, batches spanning several fused chunks and batches of 1 to 11 paths
// (both sides of the row count below which the avx2 kernel once fell back
// to the scalar tile), the fused scores must be bit-identical to the
// per-path reference, which multiplies through MatVec and never sees the
// kernels or the plan. The inputs run from no shared prefix (randomPaths)
// through prefix- and suffix-sharing sets (branchingPaths) to real TkDI and
// D-TkDI output (yenSweeps). It runs on this host's GEMM kernel only; the
// other kernel is bit-identical to it by internal/nn's
// TestKernelsBitIdentical and FuzzGemm, so the result carries over.
func TestScoreBatchFusedMatchesPerPath(t *testing.T) {
	g := testGrid(t)
	vocab := g.NumVertices()
	yen := yenSweeps(t, g)
	shapes := []struct {
		hidden int
		lambda float64
	}{{10, 0}, {10, 0.3}, {6, 0}}
	for _, body := range allBodies {
		for _, sh := range shapes {
			name := fmt.Sprintf("%v/hidden=%d/lambda=%v", body, sh.hidden, sh.lambda)
			t.Run(name, func(t *testing.T) {
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
				for _, reversed := range []bool{false, true} {
					paths := branchingPaths(rng, 70, vocab, 80, reversed)
					requireFusedMatchesPerPath(t, m, paths, fmt.Sprintf("branching, reversed=%v", reversed))
				}
				for i, sweep := range yen {
					requireFusedMatchesPerPath(t, m, sweep, fmt.Sprintf("yen sweep %d", i))
				}
				small := randomPaths(rng, 9, vocab, 40)
				for n := 1; n <= len(small); n++ {
					requireFusedMatchesPerPath(t, m, small[:n], "small batch")
				}
			})
		}
	}
}

// FuzzScoreBatchFused holds the fused scorer to Float64bits identity with
// the per-path reference on arbitrary branching path sets. The bytes are a
// program: a path count (at most 40), then per path which earlier path it
// copies from, how many of its vertices, whether from the front (a shared
// prefix) or the back (a shared suffix), and how many vertices it adds on
// the other side, from a vocabulary of 12. Small GRU, BiGRU, LSTM, AttnGRU
// and mean-pool models score each set on this host's kernel.
func FuzzScoreBatchFused(f *testing.F) {
	const vocab = 12
	var models []*Model
	for _, body := range allBodies {
		m, err := New(vocab, Config{EmbeddingDim: 5, Hidden: 6, Variant: PRA2, Body: body, Seed: int64(3 + body)})
		if err != nil {
			f.Fatal(err)
		}
		models = append(models, m)
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 4, 1, 2, 3, 0, 2, 0, 0, 9, 9, 1, 1, 2})
	f.Add([]byte{40, 0, 0, 16, 1, 2, 3, 4, 5, 6, 7, 8, 0, 8, 2, 0, 1, 8, 3, 7, 1, 5, 4, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := next() % 41
		paths := make([]spath.Path, 0, n)
		for i := range n {
			var vs []roadnet.VertexID
			src, keep, shape := next()%(i+1), next(), next()
			fromBack, more := shape&1 == 1, (shape>>1)%9
			if src < i {
				from := paths[src].Vertices
				keep %= len(from) + 1
				if fromBack {
					vs = slices.Clone(from[len(from)-keep:])
				} else {
					vs = slices.Clone(from[:keep])
				}
			}
			added := make([]roadnet.VertexID, more)
			for k := range added {
				added[k] = roadnet.VertexID(next() % vocab)
			}
			if fromBack {
				vs = append(added, vs...)
			} else {
				vs = append(vs, added...)
			}
			paths = append(paths, spath.Path{Vertices: vs})
		}
		for _, m := range models {
			want, got := m.ScoreBatchPerPath(paths), m.ScoreBatchFused(paths)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v: path %d %v: fused %v != per-path %v", m.cfg.Body, i, paths[i].Vertices, got[i], want[i])
				}
			}
		}
	})
}

// trieCounts lays the sweep out as ScoreBatchFused does and returns, per
// direction, the path-steps and the rows the recurrent step multiplies:
// the rows of every depth (the candidate gate's product) and the parent
// rows with children (the per-parent products).
func trieCounts(paths []spath.Path, dirs int) (steps int, rows, parents [2]int) {
	var sw, ws fusedWS
	order := sw.sortSweep(paths)
	for lo := 0; lo < len(order); lo += fusedChunk {
		ws.layout(paths, order[lo:min(lo+fusedChunk, len(order))], dirs)
		steps += int(ws.off[len(ws.off)-1])
		for dir := range dirs {
			tr := &ws.tries[dir]
			for d := 1; d <= tr.maxT(); d++ {
				_, n := tr.depth(d)
				rows[dir] += n
				parents[dir] += int(tr.inner[d-1])
			}
		}
	}
	return steps, rows, parents
}

// prefixCounts counts what trieCounts should find, with maps over an
// independent sort and chunking of the sweep: the distinct non-empty
// prefixes of each chunk's paths (of the reversed sequences when
// reversed), and the distinct prefixes some path of the chunk extends,
// the empty one included.
func prefixCounts(paths []spath.Path, reversed bool) (rows, parents int) {
	var seqs [][]roadnet.VertexID
	for _, p := range paths {
		if len(p.Vertices) > 0 {
			seqs = append(seqs, p.Vertices)
		}
	}
	sort.Slice(seqs, func(a, b int) bool {
		x, y := seqs[a], seqs[b]
		for i := 0; i < len(x) && i < len(y); i++ {
			if x[i] != y[i] {
				return x[i] < y[i]
			}
		}
		return len(x) < len(y)
	})
	for lo := 0; lo < len(seqs); lo += fusedChunk {
		seen, extended := map[string]bool{}, map[string]bool{}
		for _, s := range seqs[lo:min(lo+fusedChunk, len(seqs))] {
			if reversed {
				s = slices.Clone(s)
				slices.Reverse(s)
			}
			for t := 1; t <= len(s); t++ {
				seen[fmt.Sprint(s[:t])] = true
				extended[fmt.Sprint(s[:t-1])] = true
			}
		}
		rows += len(seen)
		parents += len(extended)
	}
	return rows, parents
}

// TestFusedStepsEachPrefixOnce checks the fused scorer's work as a count:
// over a sweep, the rows the recurrent step multiplies equal the distinct
// prefixes of each chunk, plus the distinct reversed prefixes for the
// BiGRU backward direction, and the per-parent products take each
// extended prefix once. It logs the counts of the two served shapes.
func TestFusedStepsEachPrefixOnce(t *testing.T) {
	check := func(name string, paths []spath.Path) (steps, rows, rrows int) {
		t.Helper()
		steps, got, gotParents := trieCounts(paths, 2)
		for dir, reversed := range []bool{false, true} {
			want, wantParents := prefixCounts(paths, reversed)
			if got[dir] != want || gotParents[dir] != wantParents {
				t.Fatalf("%s, reversed=%v: the step multiplies %d rows and %d parent rows, want %d distinct prefixes and %d extended ones",
					name, reversed, got[dir], gotParents[dir], want, wantParents)
			}
		}
		return steps, got[0], got[1]
	}
	rng := rand.New(rand.NewSource(8))
	for round := range 4 {
		check(fmt.Sprintf("random %d", round), randomPaths(rng, 70, 60, 80))
		for _, reversed := range []bool{false, true} {
			check(fmt.Sprintf("branching %d reversed=%v", round, reversed), branchingPaths(rng, 70, 60, 80, reversed))
		}
	}
	for i, sweep := range yenSweeps(t, testGrid(t)) {
		check(fmt.Sprintf("yen sweep %d", i), sweep)
	}
	for _, shape := range servedShapes(t) {
		var steps, rows, rrows int
		for i, sweep := range shape.sweeps {
			s, r, rr := check(fmt.Sprintf("%s sweep %d", shape.name, i), sweep)
			steps, rows, rrows = steps+s, rows+r, rrows+rr
		}
		t.Logf("%s: %d path-steps, %d distinct prefixes (%.1f %% of the steps repeat one), %d distinct suffixes (%.1f %%)",
			shape.name, steps, rows, 100*(1-float64(rows)/float64(steps)), rrows, 100*(1-float64(rrows)/float64(steps)))
	}
}

type servedShape struct {
	name   string
	sweeps [][]spath.Path
}

// servedShapes regenerates the module root's served scoring sweeps
// (bench_test.go: servedShapes, servedSweeps) on the repository benchmark's
// 56x56 world on a per-query weight fill, which returns the served
// ranker's candidates: 200 crosstown D-TkDI k=5 sweeps of one query, 25 local TkDI
// k=32 sweeps of eight.
func servedShapes(t testing.TB) []servedShape {
	t.Helper()
	const side = 56
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = side, side, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// gridPairs draws n cells whose grid distance steps through [lo, hi].
	gridPairs := func(seed int64, n, lo, hi int) [][2]roadnet.VertexID {
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
	var shapes []servedShape
	for _, s := range []struct {
		name    string
		pairs   [][2]roadnet.VertexID
		cands   dataset.Config
		perCall int
	}{
		{"crosstown", gridPairs(1, 200, 20, 40), dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8}, 1},
		{"local_k32", gridPairs(2, 200, 5, 12), dataset.Config{Strategy: dataset.TkDI, K: 32}, 8},
	} {
		var sweeps [][]spath.Path
		for i := 0; i+s.perCall <= len(s.pairs); i += s.perCall {
			var sweep []spath.Path
			for _, p := range s.pairs[i : i+s.perCall] {
				cands, _, err := s.cands.Candidates(context.Background(), g, nil, spath.ByLength, nil, p[0], p[1])
				if err != nil {
					t.Fatal(err)
				}
				sweep = append(sweep, cands...)
			}
			sweeps = append(sweeps, sweep)
		}
		shapes = append(shapes, servedShape{s.name, sweeps})
	}
	return shapes
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

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

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

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

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

// BenchmarkScoreBatchFused is the fused scorer's no-sharing guard: 24
// random paths, lengths 8-48, over 200 vertices (the BenchmarkRankQuery
// model size), which share next to no prefix, so the trie saves nothing
// and its layout cost shows. The served shapes, where it does save, are
// the module root's BenchmarkScoreBatchFused. Compare against
// BenchmarkScoreBatchPerPath.
func BenchmarkScoreBatchFused(b *testing.B) { benchScoreBatch(b, true) }

// BenchmarkScoreBatchPerPath is the per-path reference for
// BenchmarkScoreBatchFused.
func BenchmarkScoreBatchPerPath(b *testing.B) { benchScoreBatch(b, false) }
