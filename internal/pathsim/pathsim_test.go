package pathsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// ladder builds a 2 x n ladder graph so multiple distinct paths exist.
func ladder(t testing.TB, n int) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(2*n, 6*n)
	for r := 0; r < 2; r++ {
		for c := 0; c < n; c++ {
			b.AddVertex(geo.Point{Lon: 10 + float64(c)*0.002, Lat: 57 + float64(r)*0.002})
		}
	}
	id := func(r, c int) roadnet.VertexID { return roadnet.VertexID(r*n + c) }
	for c := 0; c < n-1; c++ {
		b.AddBidirectional(id(0, c), id(0, c+1), roadnet.Residential)
		b.AddBidirectional(id(1, c), id(1, c+1), roadnet.Residential)
	}
	for c := 0; c < n; c++ {
		b.AddBidirectional(id(0, c), id(1, c), roadnet.Residential)
	}
	return b.Build()
}

func twoPaths(t *testing.T) (*roadnet.Graph, spath.Path, spath.Path) {
	t.Helper()
	g := ladder(t, 5)
	paths, err := spath.TopK(g, 0, 4, 2, spath.ByLength)
	if err != nil || len(paths) < 2 {
		t.Fatalf("need 2 paths, got %d err=%v", len(paths), err)
	}
	return g, paths[0], paths[1]
}

func TestWeightedJaccardIdentity(t *testing.T) {
	g, p, _ := twoPaths(t)
	if s := WeightedJaccard(g, p, p); s != 1 {
		t.Fatalf("WeightedJaccard(p,p) = %v, want 1", s)
	}
}

func TestWeightedJaccardSymmetric(t *testing.T) {
	g, p, q := twoPaths(t)
	a, b := WeightedJaccard(g, p, q), WeightedJaccard(g, q, p)
	if math.Abs(a-b) > 1e-12 {
		t.Fatalf("asymmetric: %v vs %v", a, b)
	}
}

func TestWeightedJaccardDisjoint(t *testing.T) {
	g := ladder(t, 5)
	top, err := spath.Dijkstra(g, 0, 4, spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	bottom, err := spath.Dijkstra(g, 5, 9, spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	if s := WeightedJaccard(g, top, bottom); s != 0 {
		t.Fatalf("disjoint paths similarity = %v, want 0", s)
	}
}

func TestWeightedJaccardEmptyPaths(t *testing.T) {
	g := ladder(t, 3)
	empty := spath.Path{Vertices: []roadnet.VertexID{0}}
	if s := WeightedJaccard(g, empty, empty); s != 1 {
		t.Fatalf("two empty paths = %v, want 1", s)
	}
	p, _ := spath.Dijkstra(g, 0, 2, spath.ByLength)
	if s := WeightedJaccard(g, empty, p); s != 0 {
		t.Fatalf("empty vs non-empty = %v, want 0", s)
	}
}

func TestWeightedJaccardBoundsProperty(t *testing.T) {
	g := ladder(t, 6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := roadnet.VertexID(rng.Intn(g.NumVertices()))
		dst := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if src == dst {
			return true
		}
		paths, err := spath.TopK(g, src, dst, 3, spath.ByLength)
		if err != nil {
			return true
		}
		for i := range paths {
			for j := range paths {
				s := WeightedJaccard(g, paths[i], paths[j])
				if s < 0 || s > 1+1e-12 {
					return false
				}
				if i == j && math.Abs(s-1) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestJaccardVsWeightedOnUniformLengths(t *testing.T) {
	// On a graph where all edges have roughly equal length, plain and
	// weighted Jaccard should be close.
	g, p, q := twoPaths(t)
	pj := Jaccard(p, q)
	wj := WeightedJaccard(g, p, q)
	if math.Abs(pj-wj) > 0.25 {
		t.Fatalf("uniform-length graph: jaccard %.3f vs weighted %.3f diverge too much", pj, wj)
	}
}

func TestWeightedJaccardSimAdapter(t *testing.T) {
	g, p, q := twoPaths(t)
	sim := WeightedJaccardSim(g)
	if sim(p, q) != WeightedJaccard(g, p, q) {
		t.Fatal("adapter should match direct call")
	}
}

func TestSimilaritiesSymmetricProperty(t *testing.T) {
	g := ladder(t, 6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := roadnet.VertexID(rng.Intn(g.NumVertices()))
		dst := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if src == dst {
			return true
		}
		paths, err := spath.TopK(g, src, dst, 2, spath.ByLength)
		if err != nil || len(paths) < 2 {
			return true
		}
		p, q := paths[0], paths[1]
		return math.Abs(Jaccard(p, q)-Jaccard(q, p)) < 1e-12 &&
			math.Abs(WeightedJaccard(g, p, q)-WeightedJaccard(g, q, p)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
