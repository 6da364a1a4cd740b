package spath

import (
	"math"
	"math/rand"
	"testing"

	"pathrank/internal/allocpin"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

func workspaceTestGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 12, Cols: 12, SpacingM: 250, JitterFrac: 0.25,
		RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
		Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestWorkspaceMatchesFreshQueries checks that reusing one Workspace across
// many queries returns exactly the same paths as pool-fresh package calls.
func TestWorkspaceMatchesFreshQueries(t *testing.T) {
	g := workspaceTestGraph(t)
	ws := NewWorkspace()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		src := roadnet.VertexID(rng.Intn(g.NumVertices()))
		dst := roadnet.VertexID(rng.Intn(g.NumVertices()))
		for _, w := range []Weight{ByLength, ByTime} {
			want, errWant := Dijkstra(g, src, dst, w)
			got, errGot := ws.Dijkstra(g, src, dst, w)
			if (errWant == nil) != (errGot == nil) {
				t.Fatalf("q%d: err mismatch: %v vs %v", i, errWant, errGot)
			}
			if errWant != nil {
				continue
			}
			if !want.Equal(got) || math.Abs(want.Cost-got.Cost) > 1e-9 {
				t.Fatalf("q%d: reused workspace returned a different path", i)
			}
		}
	}
}

// TestWorkspaceGenerationWrap exercises stamp-wrap clearing by forcing the
// generation counter near overflow.
func TestWorkspaceGenerationWrap(t *testing.T) {
	g := workspaceTestGraph(t)
	ws := NewWorkspace()
	want, err := ws.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), ByLength)
	if err != nil {
		t.Fatal(err)
	}
	ws.gen = math.MaxUint32 - 1
	ws.heap.gen = math.MaxUint32 - 1
	for i := 0; i < 4; i++ {
		got, err := ws.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), ByLength)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("wrap iteration %d: path changed after generation wrap", i)
		}
	}
}

// TestDijkstraAllocs is the allocation-regression guard for the pooled
// workspace: a repeated Dijkstra query allocates only the returned Path
// (edge slice + vertex slice + reconstruct temporaries).
func TestDijkstraAllocs(t *testing.T) {
	g := workspaceTestGraph(t)
	src := roadnet.VertexID(0)
	dst := roadnet.VertexID(g.NumVertices() - 1)
	ws := NewWorkspace()
	allocpin.Pin(t, allocpin.Count{Allocs: 2, Bytes: 16}, func() {
		if _, err := ws.Dijkstra(g, src, dst, ByLength); err != nil {
			t.Fatal(err)
		}
	})
}

// TestWorkspaceBanStampsAcrossGraphs guards the ban-stamp invariant:
// reusing a workspace on a graph that resizes only one of the two ban
// arrays resets the shared generation counter, and stale stamps in the
// retained array must not read as banned once the counter climbs back.
func TestWorkspaceBanStampsAcrossGraphs(t *testing.T) {
	// The line graph has more vertices but fewer edges than the grid —
	// the shape that resizes only one of the two ban arrays.
	grid := workspaceTestGraph(t)
	line := lineGraph(t, grid.NumVertices()+50)
	if line.NumEdges() >= grid.NumEdges() {
		t.Fatalf("test shape broken: line graph must have fewer edges (%d >= %d)",
			line.NumEdges(), grid.NumEdges())
	}

	// Grid then line: ensure() reallocates banV, banE is retained.
	ws := NewWorkspace()
	ws.ensure(grid)
	ws.resetBans(grid)
	ws.banEdge(0)
	ws.ensure(line)
	ws.resetBans(line)
	if ws.edgeBanned(0) {
		t.Fatal("stale edge-ban stamp survived graph switch (banV reallocated, banE retained)")
	}

	// Line then grid: resetBans() reallocates banE, banV is retained.
	ws2 := NewWorkspace()
	ws2.ensure(line)
	ws2.resetBans(line)
	ws2.banVertex(0)
	ws2.ensure(grid)
	ws2.resetBans(grid)
	if ws2.vertexBanned(0) {
		t.Fatal("stale vertex-ban stamp survived graph switch (banE reallocated, banV retained)")
	}

	// End-to-end: TopK through the shared pool across both graphs agrees
	// with itself on a fresh process state.
	for _, g := range []*roadnet.Graph{grid, line, grid} {
		paths, err := TopK(g, 0, roadnet.VertexID(g.NumVertices()-1), 3, ByLength)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), ByLength)
		if err != nil {
			t.Fatal(err)
		}
		if !paths[0].Equal(want) {
			t.Fatal("TopK shortest path diverged after cross-graph workspace reuse")
		}
	}
}

// TestTopKReusedWorkspaceDeterminism runs TopK twice and checks identical
// output, guarding the stamped ban-set reuse inside Yen's loop.
func TestTopKReusedWorkspaceDeterminism(t *testing.T) {
	g := workspaceTestGraph(t)
	src := roadnet.VertexID(1)
	dst := roadnet.VertexID(g.NumVertices() - 2)
	first, err := TopK(g, src, dst, 5, ByLength)
	if err != nil {
		t.Fatal(err)
	}
	second, err := TopK(g, src, dst, 5, ByLength)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("TopK returned %d then %d paths", len(first), len(second))
	}
	for i := range first {
		if !first[i].Equal(second[i]) {
			t.Fatalf("TopK path %d differs between runs", i)
		}
	}
}
