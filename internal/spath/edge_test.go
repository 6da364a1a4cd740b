package spath

import (
	"math"
	"testing"

	"pathrank/internal/roadnet"
)

func TestDiversifiedTopKOne(t *testing.T) {
	g := gridGraph(t, 5, 5)
	paths, err := DiversifiedTopK(g, 0, 12, 1, ByLength, overlapSim, 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("k=1 returned %d paths", len(paths))
	}
	best, _ := Dijkstra(g, 0, 12, ByLength)
	if math.Abs(paths[0].Cost-best.Cost) > 1e-9 {
		t.Fatal("k=1 diversified path should be the shortest path")
	}
}

func TestDiversifiedTopKZero(t *testing.T) {
	g := gridGraph(t, 5, 5)
	paths, err := DiversifiedTopK(g, 0, 12, 0, ByLength, overlapSim, 0.5, 10)
	if err != nil || paths != nil {
		t.Fatalf("k=0: paths=%v err=%v", paths, err)
	}
}

func TestDiversifiedTopKThresholdZeroDisjointOnly(t *testing.T) {
	// threshold 0 accepts only fully disjoint paths.
	g := gridGraph(t, 6, 6)
	paths, err := DiversifiedTopK(g, 0, roadnet.VertexID(g.NumVertices()-1), 4, ByLength, overlapSim, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if s := overlapSim(paths[i], paths[j]); s > 0 {
				t.Fatalf("paths %d,%d share edges (sim %.3f) despite threshold 0", i, j, s)
			}
		}
	}
}

func TestPathValidateRejectsBrokenChain(t *testing.T) {
	g := gridGraph(t, 4, 4)
	p, err := Dijkstra(g, 0, 5, ByLength)
	if err != nil || p.Len() < 2 {
		t.Skip("need a multi-edge path")
	}
	broken := p.Clone()
	broken.Vertices[1] = broken.Vertices[1] + 1 // corrupt the chain
	if broken.Validate(g) == nil {
		t.Fatal("Validate should reject a broken vertex chain")
	}
	short := Path{Vertices: p.Vertices[:1], Edges: p.Edges}
	if short.Validate(g) == nil {
		t.Fatal("Validate should reject vertex/edge count mismatch")
	}
	empty := Path{}
	if empty.Validate(g) == nil {
		t.Fatal("Validate should reject an empty path")
	}
}
