package spath

import (
	"math"
	"math/rand"
	"testing"
)

func TestALTMatchesDijkstra(t *testing.T) {
	g := gridGraph(t, 8, 8)
	alt := BuildALT(g, ByLength, 4)
	if alt.NumLandmarks() != 4 {
		t.Fatalf("landmarks = %d, want 4", alt.NumLandmarks())
	}
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		pd, errD := Dijkstra(g, src, dst, ByLength)
		pa, errA := EngineFromALT(alt).Shortest(src, dst)
		if (errD == nil) != (errA == nil) {
			t.Fatalf("src=%d dst=%d: dijkstra err=%v alt err=%v", src, dst, errD, errA)
		}
		if errD != nil {
			continue
		}
		if math.Abs(pd.Cost-pa.Cost) > 1e-6 {
			t.Fatalf("src=%d dst=%d: dijkstra %.4f vs ALT %.4f", src, dst, pd.Cost, pa.Cost)
		}
		if err := pa.Validate(g); err != nil {
			t.Fatalf("ALT path invalid: %v", err)
		}
	}
}

func TestALTByTime(t *testing.T) {
	g := gridGraph(t, 6, 6)
	alt := BuildALT(g, ByTime, 3)
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 20; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		pd, errD := Dijkstra(g, src, dst, ByTime)
		pa, errA := EngineFromALT(alt).Shortest(src, dst)
		if errD != nil || errA != nil {
			continue
		}
		if math.Abs(pd.Cost-pa.Cost) > 1e-6 {
			t.Fatalf("time costs differ: %.4f vs %.4f", pd.Cost, pa.Cost)
		}
	}
}

func TestALTHeuristicAdmissible(t *testing.T) {
	g := gridGraph(t, 6, 6)
	alt := BuildALT(g, ByLength, 3)
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 20; trial++ {
		v := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		p, err := Dijkstra(g, v, dst, ByLength)
		if err != nil {
			continue
		}
		if h := alt.heuristic(v, dst); h > p.Cost+1e-6 {
			t.Fatalf("heuristic %.4f exceeds true distance %.4f (v=%d dst=%d)", h, p.Cost, v, dst)
		}
	}
}

func TestALTSelfAndClamping(t *testing.T) {
	g := gridGraph(t, 5, 5)
	alt := BuildALT(g, ByLength, 1000) // clamped to vertex count
	if alt.NumLandmarks() > g.NumVertices() {
		t.Fatalf("landmarks %d exceed vertices %d", alt.NumLandmarks(), g.NumVertices())
	}
	p, err := EngineFromALT(alt).Shortest(2, 2)
	if err != nil || p.Len() != 0 {
		t.Fatalf("self query: len=%d err=%v", p.Len(), err)
	}
	altMin := BuildALT(g, ByLength, 0) // clamped to 1
	if altMin.NumLandmarks() != 1 {
		t.Fatalf("landmarks = %d, want 1", altMin.NumLandmarks())
	}
}

func TestALTNoPath(t *testing.T) {
	g := disconnectedPair(t)
	alt := BuildALT(g, ByLength, 1)
	if _, err := EngineFromALT(alt).Shortest(0, 1); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}
