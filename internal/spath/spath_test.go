package spath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// gridGraph builds an r x c grid with bidirectional residential edges.
func gridGraph(t testing.TB, rows, cols int) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.GenConfig{
		Rows: rows, Cols: cols, SpacingM: 200, JitterFrac: 0.2,
		RemoveFrac: 0.05, ArterialEvery: 4, Motorway: false,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 7,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate grid: %v", err)
	}
	return g
}

// lineGraph builds a simple 0-1-2-...-n line.
func lineGraph(t *testing.T, n int) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(n, 2*(n-1))
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{Lon: 10 + float64(i)*0.001, Lat: 57})
	}
	for i := 0; i < n-1; i++ {
		b.AddBidirectional(roadnet.VertexID(i), roadnet.VertexID(i+1), roadnet.Residential)
	}
	return b.Build()
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(t, 5)
	p, err := Dijkstra(g, 0, 4, ByLength)
	if err != nil {
		t.Fatalf("Dijkstra: %v", err)
	}
	if p.Len() != 4 {
		t.Fatalf("path has %d edges, want 4", p.Len())
	}
	if err := p.Validate(g); err != nil {
		t.Fatalf("invalid path: %v", err)
	}
	if p.Source() != 0 || p.Destination() != 4 {
		t.Fatalf("endpoints %d->%d, want 0->4", p.Source(), p.Destination())
	}
}

func TestDijkstraSameVertex(t *testing.T) {
	g := lineGraph(t, 3)
	p, err := Dijkstra(g, 1, 1, ByLength)
	if err != nil {
		t.Fatalf("Dijkstra: %v", err)
	}
	if p.Len() != 0 || p.Cost != 0 {
		t.Fatalf("self path should be empty with zero cost, got %d edges cost %v", p.Len(), p.Cost)
	}
}

func TestDijkstraNoPath(t *testing.T) {
	// Two disconnected vertices.
	b := roadnet.NewBuilder(2, 0)
	b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	b.AddVertex(geo.Point{Lon: 10.1, Lat: 57})
	g := b.Build()
	if _, err := Dijkstra(g, 0, 1, ByLength); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestDijkstraPrefersFastRoadUnderTimeWeight(t *testing.T) {
	// 0 -> 1 -> 3 via motorway (longer), 0 -> 2 -> 3 via residential
	// (shorter). Time weighting must pick the motorway, length weighting
	// the residential route.
	b := roadnet.NewBuilder(4, 8)
	b.AddVertex(geo.Point{Lon: 10.00, Lat: 57.000})
	b.AddVertex(geo.Point{Lon: 10.01, Lat: 57.012}) // detour north
	b.AddVertex(geo.Point{Lon: 10.01, Lat: 57.000}) // straight
	b.AddVertex(geo.Point{Lon: 10.02, Lat: 57.000})
	b.AddEdge(0, 1, roadnet.Motorway)
	b.AddEdge(1, 3, roadnet.Motorway)
	b.AddEdge(0, 2, roadnet.Residential)
	b.AddEdge(2, 3, roadnet.Residential)
	g := b.Build()

	byTime, err := Dijkstra(g, 0, 3, ByTime)
	if err != nil {
		t.Fatal(err)
	}
	if byTime.Vertices[1] != 1 {
		t.Errorf("time-weighted path goes via %d, want motorway via 1", byTime.Vertices[1])
	}
	byLen, err := Dijkstra(g, 0, 3, ByLength)
	if err != nil {
		t.Fatal(err)
	}
	if byLen.Vertices[1] != 2 {
		t.Errorf("length-weighted path goes via %d, want direct via 2", byLen.Vertices[1])
	}
}

// bellmanFord is an independent O(VE) oracle for property tests.
func bellmanFord(g *roadnet.Graph, src roadnet.VertexID, w Weight) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for iter := 0; iter < n-1; iter++ {
		changed := false
		for i := 0; i < g.NumEdges(); i++ {
			e := g.Edge(roadnet.EdgeID(i))
			if dist[e.From]+w(e) < dist[e.To] {
				dist[e.To] = dist[e.From] + w(e)
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

func TestDijkstraMatchesBellmanFordProperty(t *testing.T) {
	g := gridGraph(t, 6, 6)
	oracle := bellmanFord(g, 0, ByLength)
	got := DijkstraAll(g, 0, ByLength)
	for v := range got {
		if math.Abs(got[v]-oracle[v]) > 1e-6 {
			t.Fatalf("vertex %d: dijkstra %.3f vs bellman-ford %.3f", v, got[v], oracle[v])
		}
	}
}

func TestTopKOrderingAndUniqueness(t *testing.T) {
	g := gridGraph(t, 7, 7)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	k := 8
	paths, err := TopK(g, src, dst, k, ByLength)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(paths) == 0 {
		t.Fatal("expected at least one path")
	}
	seen := map[string]bool{}
	for i, p := range paths {
		if err := p.Validate(g); err != nil {
			t.Fatalf("path %d invalid: %v", i, err)
		}
		if p.Source() != src || p.Destination() != dst {
			t.Fatalf("path %d endpoints %d->%d", i, p.Source(), p.Destination())
		}
		if i > 0 && paths[i].Cost < paths[i-1].Cost-1e-9 {
			t.Fatalf("paths out of order: cost[%d]=%.3f < cost[%d]=%.3f", i, paths[i].Cost, i-1, paths[i-1].Cost)
		}
		key := pathKey(p)
		if seen[key] {
			t.Fatalf("duplicate path at index %d", i)
		}
		seen[key] = true
	}
	// The first path must be the Dijkstra optimum.
	best, _ := Dijkstra(g, src, dst, ByLength)
	if math.Abs(paths[0].Cost-best.Cost) > 1e-9 {
		t.Fatalf("first TopK path cost %.4f != optimum %.4f", paths[0].Cost, best.Cost)
	}
}

func TestTopKZeroAndOne(t *testing.T) {
	g := lineGraph(t, 4)
	if paths, err := TopK(g, 0, 3, 0, ByLength); err != nil || len(paths) != 0 {
		t.Fatalf("k=0: paths=%d err=%v, want 0,nil", len(paths), err)
	}
	paths, err := TopK(g, 0, 3, 1, ByLength)
	if err != nil || len(paths) != 1 {
		t.Fatalf("k=1: paths=%d err=%v", len(paths), err)
	}
}

func TestTopKFewerThanKWhenGraphThin(t *testing.T) {
	g := lineGraph(t, 4)
	// A line graph has exactly one simple path 0->3.
	paths, err := TopK(g, 0, 3, 5, ByLength)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("line graph should yield 1 simple path, got %d", len(paths))
	}
}

func TestTopKNoPath(t *testing.T) {
	b := roadnet.NewBuilder(2, 0)
	b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	b.AddVertex(geo.Point{Lon: 10.1, Lat: 57})
	g := b.Build()
	if _, err := TopK(g, 0, 1, 3, ByLength); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestTopKPathsAreSimpleProperty(t *testing.T) {
	g := gridGraph(t, 6, 6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := roadnet.VertexID(rng.Intn(g.NumVertices()))
		dst := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if src == dst {
			return true
		}
		paths, err := TopK(g, src, dst, 4, ByLength)
		if err != nil {
			return err == ErrNoPath
		}
		for _, p := range paths {
			if p.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// overlapSim is a simple similarity for diversify tests: fraction of shared
// edges relative to the smaller path.
func overlapSim(a, b Path) float64 {
	inA := make(map[roadnet.EdgeID]bool, len(a.Edges))
	for _, e := range a.Edges {
		inA[e] = true
	}
	var inter int
	for _, e := range b.Edges {
		if inA[e] {
			inter++
		}
	}
	m := len(a.Edges)
	if len(b.Edges) < m {
		m = len(b.Edges)
	}
	if m == 0 {
		return 1
	}
	return float64(inter) / float64(m)
}

func TestDiversifiedTopKRespectsThreshold(t *testing.T) {
	g := gridGraph(t, 7, 7)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	threshold := 0.8
	paths, err := DiversifiedTopK(g, src, dst, 5, ByLength, overlapSim, threshold, 50)
	if err != nil {
		t.Fatalf("DiversifiedTopK: %v", err)
	}
	if len(paths) < 2 {
		t.Fatalf("expected at least 2 diverse paths, got %d", len(paths))
	}
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if s := overlapSim(paths[i], paths[j]); s > threshold {
				t.Fatalf("paths %d and %d have similarity %.3f > %.2f", i, j, s, threshold)
			}
		}
	}
}

func TestDiversifiedTopKMoreDiverseThanTopK(t *testing.T) {
	g := gridGraph(t, 7, 7)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	k := 5
	plain, err := TopK(g, src, dst, k, ByLength)
	if err != nil {
		t.Fatal(err)
	}
	diverse, err := DiversifiedTopK(g, src, dst, k, ByLength, overlapSim, 0.7, 80)
	if err != nil {
		t.Fatal(err)
	}
	avg := func(ps []Path) float64 {
		var sum float64
		var cnt int
		for i := range ps {
			for j := i + 1; j < len(ps); j++ {
				sum += overlapSim(ps[i], ps[j])
				cnt++
			}
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	if len(diverse) >= 2 && len(plain) >= 2 && avg(diverse) > avg(plain)+1e-9 {
		t.Fatalf("diversified mean similarity %.3f should not exceed plain %.3f", avg(diverse), avg(plain))
	}
}

func TestDiversifiedTopKFirstPathIsShortest(t *testing.T) {
	g := gridGraph(t, 6, 6)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	paths, err := DiversifiedTopK(g, src, dst, 3, ByLength, overlapSim, 0.8, 40)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := Dijkstra(g, src, dst, ByLength)
	if math.Abs(paths[0].Cost-best.Cost) > 1e-9 {
		t.Fatalf("first diversified path cost %.3f != shortest %.3f", paths[0].Cost, best.Cost)
	}
}

func TestPathEqualAndClone(t *testing.T) {
	g := lineGraph(t, 4)
	p, _ := Dijkstra(g, 0, 3, ByLength)
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone should equal original")
	}
	q.Edges[0] = q.Edges[0] + 1
	if p.Equal(q) {
		t.Fatal("mutated clone should differ")
	}
}

func TestPathLengthTimeAccessors(t *testing.T) {
	g := lineGraph(t, 4)
	p, _ := Dijkstra(g, 0, 3, ByLength)
	if math.Abs(p.Length(g)-p.Cost) > 1e-9 {
		t.Fatalf("Length %.3f != ByLength cost %.3f", p.Length(g), p.Cost)
	}
	wantTime := p.Length(g) / (roadnet.Residential.SpeedKmH() / 3.6)
	if math.Abs(p.Time(g)-wantTime) > 1e-6 {
		t.Fatalf("Time %.3f, want %.3f", p.Time(g), wantTime)
	}
}

func TestMinHeapOrderingProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var h heap4
		h.ensure(len(vals))
		h.reset()
		for i, v := range vals {
			if !math.IsNaN(v) {
				h.push(roadnet.VertexID(i), v)
			}
		}
		// Decrease some keys: the position index must follow the moves.
		for i, v := range vals {
			if i%3 == 0 && !math.IsNaN(v) {
				h.update(roadnet.VertexID(i), v/2-1)
			}
		}
		prev := math.Inf(-1)
		for !h.empty() {
			_, key := h.pop()
			if key < prev {
				return false
			}
			prev = key
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
