package shardserve

import (
	"bytes"
	"crypto/sha256"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// refCorridor is the corridor extraction Corridor replaced, kept as its
// reference: two full seeded sweeps under the weight function, a scan of
// the vertex table for fwd+rev <= bound and a scan of the edge table for
// edges with both endpoints inside.
func refCorridor(g *roadnet.Graph, sh *pathrank.ShardInfo, fp [sha256.Size]byte, q pathrank.CorridorQuery) []byte {
	n := g.NumVertices()
	fwd := make([]float64, n)
	rev := make([]float64, n)
	ws := spath.NewWorkspace()
	ws.SeededDistances(g, q.Seeds, false, q.Bound, q.Weight.Weight(), fwd)
	ws.SeededDistances(g, q.RSeeds, true, q.Bound, q.Weight.Weight(), rev)
	var vertices []roadnet.Vertex
	in := make([]bool, n)
	for v := 0; v < n; v++ {
		if fwd[v]+rev[v] <= q.Bound {
			in[v] = true
			vertices = append(vertices, g.Vertex(roadnet.VertexID(v)))
		}
	}
	var edges []roadnet.Edge
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		if in[e.From] && in[e.To] {
			e.ID = sh.EdgeGlobal[e.ID]
			edges = append(edges, e)
		}
	}
	return pathrank.EncodeCorridorAnswer(fp, vertices, edges)
}

// corridorQueries draws one set of seeds on g and returns it under the
// bounds to check: 0, a random bound, and a vertex's exact fwd+rev with
// the floats on either side of it and its double. Seeds come from from (a
// shard's boundary, say) plus one arbitrary vertex at 0 on each side, as
// the router adds the query's endpoint on its own shard; distances run up
// to scale, with zeros, a duplicate vertex and an unreachable (+Inf) seed.
func corridorQueries(rng *rand.Rand, g *roadnet.Graph, wk pathrank.WeightKind, from []roadnet.VertexID, scale float64) []pathrank.CorridorQuery {
	n := g.NumVertices()
	draw := func() []spath.Seed {
		var s []spath.Seed
		for i := 0; i < 1+rng.Intn(4); i++ {
			d := 0.0
			if rng.Intn(4) != 0 {
				d = rng.Float64() * scale
			}
			s = append(s, spath.Seed{V: from[rng.Intn(len(from))], Dist: d})
		}
		s = append(s, spath.Seed{V: s[0].V, Dist: s[0].Dist / 2})
		if rng.Intn(2) == 0 {
			s = append(s, spath.Seed{V: roadnet.VertexID(rng.Intn(n))})
		}
		if rng.Intn(3) == 0 {
			s = append(s, spath.Seed{V: from[rng.Intn(len(from))], Dist: math.Inf(1)})
		}
		return s
	}
	seeds, rseeds := draw(), draw()

	fwd := make([]float64, n)
	rev := make([]float64, n)
	ws := spath.NewWorkspace()
	ws.SeededDistances(g, seeds, false, math.Inf(1), wk.Weight(), fwd)
	ws.SeededDistances(g, rseeds, true, math.Inf(1), wk.Weight(), rev)
	bounds := []float64{0, rng.Float64() * 3 * scale}
	var onPath []float64
	for v := range fwd {
		if s := fwd[v] + rev[v]; !math.IsInf(s, 1) {
			onPath = append(onPath, s)
		}
	}
	if len(onPath) > 0 {
		c := onPath[rng.Intn(len(onPath))]
		bounds = append(bounds, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)), 2*c)
	}
	qs := make([]pathrank.CorridorQuery, len(bounds))
	for i, c := range bounds {
		qs[i] = pathrank.CorridorQuery{Bound: c, Weight: wk, Seeds: seeds, RSeeds: rseeds}
	}
	return qs
}

// meanWeight is the mean edge weight of g under wk (1 when g has no
// weight), the scale seed distances are drawn at.
func meanWeight(g *roadnet.Graph, wk pathrank.WeightKind) float64 {
	sum := 0.0
	for _, x := range spath.WeightTable(g, wk.Weight()) {
		sum += x
	}
	if sum == 0 {
		return 1
	}
	return sum / float64(g.NumEdges())
}

// requireCorridorMatches compares corridor on ws with refCorridor for
// every query, byte for byte, and returns how many corridors were not
// empty.
func requireCorridorMatches(t testing.TB, ws *spath.Workspace, g *roadnet.Graph, sh *pathrank.ShardInfo, qs []pathrank.CorridorQuery) int {
	t.Helper()
	fp := sha256.Sum256([]byte("corridor"))
	tables := map[pathrank.WeightKind][]float64{}
	nonEmpty := 0
	for _, q := range qs {
		wts, ok := tables[q.Weight]
		if !ok {
			wts = spath.WeightTable(g, q.Weight.Weight())
			tables[q.Weight] = wts
		}
		got, want := corridor(ws, g, sh, fp, q, wts), refCorridor(g, sh, fp, q)
		if !bytes.Equal(got, want) {
			t.Fatalf("corridor under bound %v (seeds %v, reverse seeds %v) differs from the reference", q.Bound, q.Seeds, q.RSeeds)
		}
		if a, err := pathrank.DecodeCorridorAnswer(got); err != nil {
			t.Fatal(err)
		} else if a.NumVertices() > 0 {
			nonEmpty++
		}
	}
	return nonEmpty
}

// servedGraph is the served world of benchmark/: roadnet.DefaultGenConfig
// on a 56×56 grid with world seed 1.
func servedGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 56, 56, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// splitShards partitions g into parts shards and returns each shard's
// graph and metadata, as BuildBundle writes them.
func splitShards(t testing.TB, g *roadnet.Graph, parts int) ([]*roadnet.Graph, []*pathrank.ShardInfo) {
	t.Helper()
	res, err := partition.Split(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*roadnet.Graph, parts)
	infos := make([]*pathrank.ShardInfo, parts)
	for i := range graphs {
		sg, toGlobal := partition.ExtractShard(g, res.Owner, int32(i))
		graphs[i] = sg
		infos[i] = &pathrank.ShardInfo{Index: i, Parts: parts, Boundary: res.Boundary[i], EdgeGlobal: toGlobal}
	}
	return graphs, infos
}

// tiedGraph is a small jittered grid whose lengths and times are redrawn
// from a few multiples of a step, zero among them, so equal-cost paths
// and zero-cost edges are everywhere.
func tiedGraph(t testing.TB, seed int64) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 6, Cols: 7, SpacingM: 220, JitterFrac: 0.3,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vertices := make([]roadnet.Vertex, g.NumVertices())
	for v := range vertices {
		vertices[v] = g.Vertex(roadnet.VertexID(v))
	}
	edges := make([]roadnet.Edge, g.NumEdges())
	for i := range edges {
		e := g.Edge(roadnet.EdgeID(i))
		e.Length = float64(rng.Intn(4)) * 100
		e.Time = float64(rng.Intn(3)) * 7.5
		edges[i] = e
	}
	return roadnet.NewGraphFromData(vertices, edges)
}

// TestCorridorMatchesReference: the pruned corridor (Workspace.Corridor
// behind the /shard/corridor handler) answers exactly what two full
// seeded sweeps and the vertex and edge scans answer, byte for byte, on
// every shard of the served world's four-way split and on small split
// grids with zero-cost and tied edges, under both metrics, with random
// seeds and bounds that include 0 and a vertex's exact fwd+rev. One
// workspace serves every query, so no stamp may leak between them.
func TestCorridorMatchesReference(t *testing.T) {
	ws := spath.NewWorkspace()
	weights := []pathrank.WeightKind{pathrank.WeightLength, pathrank.WeightTime}
	t.Run("served-world", func(t *testing.T) {
		graphs, infos := splitShards(t, servedGraph(t), 4)
		rng := rand.New(rand.NewSource(7))
		nonEmpty := 0
		for i, g := range graphs {
			for _, wk := range weights {
				scale := 15 * meanWeight(g, wk)
				for trial := 0; trial < 8; trial++ {
					nonEmpty += requireCorridorMatches(t, ws, g, infos[i],
						corridorQueries(rng, g, wk, infos[i].Boundary, scale))
				}
			}
		}
		if nonEmpty < 100 {
			t.Fatalf("only %d corridors were not empty; the draw is too thin", nonEmpty)
		}
	})
	t.Run("tied-grids", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			full := tiedGraph(t, seed)
			graphs, infos := splitShards(t, full, 2+int(seed%2))
			rng := rand.New(rand.NewSource(seed))
			all := make([]roadnet.VertexID, full.NumVertices())
			for v := range all {
				all[v] = roadnet.VertexID(v)
			}
			for i, g := range graphs {
				for _, wk := range weights {
					for trial := 0; trial < 6; trial++ {
						from := infos[i].Boundary
						if trial%2 == 1 || len(from) == 0 {
							from = all
						}
						requireCorridorMatches(t, ws, g, infos[i],
							corridorQueries(rng, g, wk, from, 4*meanWeight(g, wk)))
					}
				}
			}
		}
	})
}

// fuzzCorridorGraph decodes data into a small directed graph: the first
// byte picks 2–13 vertices, and each following triple is an edge (from,
// to, cost) whose length and time come from a few multiples of a step,
// zero among them, so parallel edges, ties and zero-cost cycles abound.
func fuzzCorridorGraph(data []byte) *roadnet.Graph {
	n := 2
	if len(data) > 0 {
		n += int(data[0] % 12)
		data = data[1:]
	}
	vertices := make([]roadnet.Vertex, n)
	for v := range vertices {
		vertices[v] = roadnet.Vertex{ID: roadnet.VertexID(v), Point: geo.Point{Lon: 10 + float64(v)*1e-3, Lat: 57}}
	}
	var edges []roadnet.Edge
	for ; len(data) >= 3; data = data[3:] {
		edges = append(edges, roadnet.Edge{
			ID:     roadnet.EdgeID(len(edges)),
			From:   roadnet.VertexID(int(data[0]) % n),
			To:     roadnet.VertexID(int(data[1]) % n),
			Length: float64(data[2]&7) * 50,
			Time:   float64(data[2]>>3&3) * 7.5,
		})
	}
	return roadnet.NewGraphFromData(vertices, edges)
}

// FuzzCorridorMatchesReference runs the corridor check on arbitrary small
// directed graphs, each treated as one whole shard, with the queries drawn
// from a generator seeded by the input.
func FuzzCorridorMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 1, 9, 1, 2, 40, 2, 3, 7, 3, 4, 90})             // a line
	f.Add([]byte{2, 0, 1, 0, 1, 0, 0, 1, 2, 8, 2, 3, 8, 0, 3, 16})     // a zero-cost cycle and a tie
	f.Add([]byte{4, 0, 1, 10, 0, 2, 30, 1, 3, 50, 2, 3, 20, 1, 2, 5})  // a diamond
	f.Add([]byte{1, 0, 1, 10, 0, 1, 60, 0, 1, 200, 1, 2, 3, 1, 2, 77}) // parallel edges
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzCorridorGraph(data)
		sh := &pathrank.ShardInfo{EdgeGlobal: make([]roadnet.EdgeID, g.NumEdges())}
		for i := range sh.EdgeGlobal {
			sh.EdgeGlobal[i] = roadnet.EdgeID(i)
		}
		all := make([]roadnet.VertexID, g.NumVertices())
		for v := range all {
			all[v] = roadnet.VertexID(v)
		}
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		ws := spath.NewWorkspace()
		for _, wk := range []pathrank.WeightKind{pathrank.WeightLength, pathrank.WeightTime} {
			requireCorridorMatches(t, ws, g, sh, corridorQueries(rng, g, wk, all, 4*meanWeight(g, wk)))
		}
	})
}
