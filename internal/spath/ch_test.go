package spath

import (
	"math"
	"math/rand"
	"testing"

	"pathrank/internal/allocpin"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

func randVertex(rng *rand.Rand, n int) roadnet.VertexID {
	return roadnet.VertexID(rng.Intn(n))
}

func disconnectedPair(t *testing.T) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(2, 0)
	b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	b.AddVertex(geo.Point{Lon: 10.1, Lat: 57})
	return b.Build()
}

func TestCHMatchesDijkstraByLength(t *testing.T) {
	g := gridGraph(t, 8, 8)
	ch := BuildCH(g, ByLength)
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 40; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		pd, errD := Dijkstra(g, src, dst, ByLength)
		pc, errC := ch.Query(src, dst)
		if (errD == nil) != (errC == nil) {
			t.Fatalf("src=%d dst=%d: dijkstra err=%v ch err=%v", src, dst, errD, errC)
		}
		if errD != nil {
			continue
		}
		if math.Abs(pd.Cost-pc.Cost) > 1e-6 {
			t.Fatalf("src=%d dst=%d: dijkstra %.4f vs CH %.4f", src, dst, pd.Cost, pc.Cost)
		}
		if err := pc.Validate(g); err != nil {
			t.Fatalf("CH path invalid: %v", err)
		}
		if pc.Source() != src || pc.Destination() != dst {
			t.Fatalf("CH endpoints %d->%d, want %d->%d", pc.Source(), pc.Destination(), src, dst)
		}
	}
}

func TestCHMatchesDijkstraByTime(t *testing.T) {
	g := gridGraph(t, 7, 7)
	ch := BuildCH(g, ByTime)
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 25; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		pd, errD := Dijkstra(g, src, dst, ByTime)
		pc, errC := ch.Query(src, dst)
		if (errD == nil) != (errC == nil) {
			t.Fatalf("error mismatch: %v vs %v", errD, errC)
		}
		if errD != nil {
			continue
		}
		if math.Abs(pd.Cost-pc.Cost) > 1e-6 {
			t.Fatalf("time costs differ: %.4f vs %.4f", pd.Cost, pc.Cost)
		}
	}
}

func TestCHSelfQuery(t *testing.T) {
	g := gridGraph(t, 5, 5)
	ch := BuildCH(g, ByLength)
	p, err := ch.Query(3, 3)
	if err != nil || p.Len() != 0 {
		t.Fatalf("self query: len=%d err=%v", p.Len(), err)
	}
}

func TestCHAddsShortcuts(t *testing.T) {
	g := gridGraph(t, 8, 8)
	ch := BuildCH(g, ByLength)
	if ch.NumShortcuts() == 0 {
		t.Fatal("grid contraction should add shortcuts")
	}
}

// TestBuildCHAllocs pins that witness searches allocate nothing: a build
// allocates only its working lists, arc set and hierarchy arrays (a map and
// heap per search cost 258 k allocations on the micro graph).
func TestBuildCHAllocs(t *testing.T) {
	g := microTestGraph(t)
	allocpin.Pin(t, allocpin.Count{Allocs: 4111, Bytes: 819600}, func() { BuildCH(g, ByLength) })
}

func TestCHDisconnectedReturnsErrNoPath(t *testing.T) {
	g := disconnectedPair(t)
	ch := BuildCH(g, ByLength)
	if _, err := ch.Query(0, 1); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}
