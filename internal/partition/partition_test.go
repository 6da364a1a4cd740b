package partition

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// testGraph generates a jittered random grid. Continuous jittered
// coordinates give continuous edge weights, so shortest paths are unique
// with probability one — the property tests can demand exact answers.
func testGraph(t testing.TB, rows, cols int, seed int64) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: rows, Cols: cols, SpacingM: 220, JitterFrac: 0.3,
		RemoveFrac: 0.07, ArterialEvery: 4, Motorway: true,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: seed,
	})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

// TestSplitOwnsEveryVertexExactlyOnce checks the partition's basic
// contract over random graphs and part counts: every vertex has exactly
// one owner in range, no shard is empty, and shard sizes stay within the
// documented balance bound.
func TestSplitOwnsEveryVertexExactlyOnce(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		for _, parts := range []int{2, 3, 4, 5, 8} {
			g := testGraph(t, 8, 9, seed)
			res, err := Split(g, parts)
			if err != nil {
				t.Fatalf("seed %d parts %d: %v", seed, parts, err)
			}
			if len(res.Owner) != g.NumVertices() {
				t.Fatalf("seed %d parts %d: owner table has %d entries for %d vertices",
					seed, parts, len(res.Owner), g.NumVertices())
			}
			counts := make([]int, parts)
			for v, s := range res.Owner {
				if s < 0 || int(s) >= parts {
					t.Fatalf("seed %d parts %d: vertex %d owned by out-of-range shard %d", seed, parts, v, s)
				}
				counts[s]++
			}
			// Proportional cuts hand each leaf its share up to one vertex of
			// rounding per bisection level.
			levels := int(math.Ceil(math.Log2(float64(parts))))
			perfect := g.NumVertices() / parts
			for s, c := range counts {
				if c == 0 {
					t.Fatalf("seed %d parts %d: shard %d owns no vertices", seed, parts, s)
				}
				if c < perfect-levels-1 || c > perfect+levels+1 {
					t.Errorf("seed %d parts %d: shard %d owns %d vertices, want within %d of %d",
						seed, parts, s, c, levels+1, perfect)
				}
			}
			if im := res.Imbalance(); im > 1.2 {
				t.Errorf("seed %d parts %d: imbalance %.3f exceeds 1.2", seed, parts, im)
			}
		}
	}
}

// TestBoundarySetComplete checks the separator invariants: every cut
// edge's endpoints are boundary vertices of their owners, every boundary
// vertex has an incident cut edge, the per-shard lists are ascending and
// disjoint, and no intra-shard edge is listed as cut.
func TestBoundarySetComplete(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		for _, parts := range []int{2, 3, 4} {
			g := testGraph(t, 8, 9, seed)
			res, err := Split(g, parts)
			if err != nil {
				t.Fatal(err)
			}
			inBoundary := make(map[roadnet.VertexID]int32)
			for s, list := range res.Boundary {
				for i, v := range list {
					if i > 0 && list[i-1] >= v {
						t.Fatalf("shard %d boundary not strictly ascending at %d", s, i)
					}
					if res.Owner[v] != int32(s) {
						t.Fatalf("boundary vertex %d listed under shard %d but owned by %d", v, s, res.Owner[v])
					}
					if prev, dup := inBoundary[v]; dup {
						t.Fatalf("vertex %d in boundary of shards %d and %d", v, prev, s)
					}
					inBoundary[v] = int32(s)
				}
			}
			cutByID := make(map[roadnet.EdgeID]bool)
			for _, e := range res.CutEdges {
				if res.Owner[e.From] == res.Owner[e.To] {
					t.Fatalf("edge %d listed as cut but both endpoints owned by shard %d", e.ID, res.Owner[e.From])
				}
				for _, v := range []roadnet.VertexID{e.From, e.To} {
					if _, ok := inBoundary[v]; !ok {
						t.Fatalf("cut edge %d endpoint %d is not a boundary vertex", e.ID, v)
					}
				}
				cutByID[e.ID] = true
			}
			// Completeness in the other direction: every cross-shard edge of
			// the graph is in CutEdges, and every boundary vertex earns its
			// place with at least one incident cut edge.
			touched := make(map[roadnet.VertexID]bool)
			for i := 0; i < g.NumEdges(); i++ {
				e := g.Edge(roadnet.EdgeID(i))
				if res.Owner[e.From] != res.Owner[e.To] {
					if !cutByID[e.ID] {
						t.Fatalf("cross-shard edge %d missing from CutEdges", e.ID)
					}
					touched[e.From] = true
					touched[e.To] = true
				}
			}
			if len(cutByID) != len(res.CutEdges) {
				t.Fatalf("CutEdges holds duplicates: %d records, %d distinct", len(res.CutEdges), len(cutByID))
			}
			for v := range inBoundary {
				if !touched[v] {
					t.Fatalf("boundary vertex %d has no incident cut edge", v)
				}
			}
		}
	}
}

// TestExtractShardInduced checks that a shard subgraph is exactly the
// induced one: the full vertex table under global IDs, every intra-shard
// edge with weights bit-identical to the full graph's, and nothing else.
func TestExtractShardInduced(t *testing.T) {
	g := testGraph(t, 7, 8, 5)
	res, err := Split(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	totalEdges := 0
	for s := int32(0); s < 3; s++ {
		sub, toGlobal := ExtractShard(g, res.Owner, s)
		if sub.NumVertices() != g.NumVertices() {
			t.Fatalf("shard %d dropped vertices: %d != %d", s, sub.NumVertices(), g.NumVertices())
		}
		if len(toGlobal) != sub.NumEdges() {
			t.Fatalf("shard %d edge mapping has %d entries for %d edges", s, len(toGlobal), sub.NumEdges())
		}
		totalEdges += sub.NumEdges()
		for i := 0; i < sub.NumEdges(); i++ {
			le := sub.Edge(roadnet.EdgeID(i))
			ge := g.Edge(toGlobal[i])
			if res.Owner[le.From] != s || res.Owner[le.To] != s {
				t.Fatalf("shard %d edge %d endpoints not owned", s, i)
			}
			if le.From != ge.From || le.To != ge.To || le.Length != ge.Length || le.Time != ge.Time || le.Category != ge.Category {
				t.Fatalf("shard %d edge %d differs from global edge %d", s, i, ge.ID)
			}
		}
	}
	if totalEdges+len(res.CutEdges) != g.NumEdges() {
		t.Fatalf("edges split %d induced + %d cut != %d total", totalEdges, len(res.CutEdges), g.NumEdges())
	}
}

// TestDistanceTableIsDijkstra: the boundary tables are plain sums. Under
// both metrics, row i of distanceTable is DijkstraAll from the i-th
// boundary vertex read at the boundary vertices, bit for bit, whatever
// the number of workers that computed the rows.
func TestDistanceTableIsDijkstra(t *testing.T) {
	for _, procs := range []int{1, 3} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			testDistanceTableIsDijkstra(t)
		})
	}
}

func testDistanceTableIsDijkstra(t *testing.T) {
	g := testGraph(t, 9, 9, 23)
	res, err := Split(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	B := res.BoundaryVertices()
	nb := len(B)
	if nb < 4 {
		t.Fatalf("only %d boundary vertices; split degenerate", nb)
	}
	for _, tc := range []struct {
		name string
		w    spath.Weight
	}{{"length", spath.ByLength}, {"time", spath.ByTime}} {
		D := distanceTable(g, tc.w, B)
		for i, b := range B {
			all := spath.DijkstraAll(g, b, tc.w)
			for j, v := range B {
				if got, want := D[i*nb+j], all[v]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: D[%d][%d] = %v, DijkstraAll = %v", tc.name, b, v, got, want)
				}
			}
		}
	}
}

// TestBoundaryDistancesDecompose is the separator property itself, on the
// tables the router reads: for random vertex pairs on different shards,
// the full-graph distance equals the min over boundary stitch points of
// within-shard distance to the boundary plus the bundle's
// boundary-to-boundary distance plus within-shard distance from the
// boundary. The generated networks are two-way with equal costs, where a
// search run in the wrong direction gives the same numbers, so the
// property is checked on one with every sixth edge dropped too.
func TestBoundaryDistancesDecompose(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *roadnet.Graph
	}{
		{"two-way", testGraph(t, 7, 7, 17)},
		{"one-way", oneWay(testGraph(t, 7, 7, 17), 6)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.g
			sm, _ := bundleMap(t, g, 2)
			sub0, _ := ExtractShard(g, sm.Owner, 0)
			sub1, _ := ExtractShard(g, sm.Owner, 1)
			all := sm.GlobalBoundary()
			nb := len(all)
			if nb == 0 {
				t.Fatal("no boundary vertices on a connected split graph")
			}
			pos := make(map[roadnet.VertexID]int, nb)
			for i, v := range all {
				pos[v] = i
			}
			// The boundary table the router stitches with.
			D := sm.DLen

			ws := spath.GetWorkspace(g)
			defer ws.Release()
			checked := 0
			for src := 0; src < g.NumVertices() && checked < 12; src += 7 {
				for dst := 1; dst < g.NumVertices() && checked < 12; dst += 11 {
					if sm.Owner[src] == sm.Owner[dst] {
						continue
					}
					sSub, tSub := sub0, sub1
					if sm.Owner[src] == 1 {
						sSub, tSub = sub1, sub0
					}
					want := make([]float64, 1)
					ws.BoundedDistances(g, roadnet.VertexID(src), []roadnet.VertexID{roadnet.VertexID(dst)}, math.Inf(1), spath.ByLength, want)

					bi := sm.Boundary[sm.Owner[src]]
					bj := sm.Boundary[sm.Owner[dst]]
					dsrc := make([]float64, len(bi))
					ddst := make([]float64, len(bj))
					// The two halves a shard's boundary query computes.
					wss := spath.GetWorkspace(sSub)
					wss.BoundaryDistances(sSub, roadnet.VertexID(src), false, bi, spath.WeightTable(sSub, spath.ByLength), dsrc)
					wss.Release()
					wst := spath.GetWorkspace(tSub)
					wst.BoundaryDistances(tSub, roadnet.VertexID(dst), true, bj, spath.WeightTable(tSub, spath.ByLength), ddst)
					wst.Release()

					got := math.Inf(1)
					for ui, u := range bi {
						for wi, w := range bj {
							if v := dsrc[ui] + D[pos[u]*nb+pos[w]] + ddst[wi]; v < got {
								got = v
							}
						}
					}
					if math.IsInf(want[0], 1) {
						if !math.IsInf(got, 1) {
							t.Fatalf("%d->%d: full graph unreachable but stitch gives %g", src, dst, got)
						}
						continue
					}
					// The stitch decomposes one optimal path (first boundary exit,
					// last boundary entry), so the min is attained exactly — but the
					// three legs are summed in a different association order than one
					// straight left-to-right relaxation, so allow one ulp-scale slack.
					if diff := math.Abs(got - want[0]); diff > want[0]*1e-12 {
						t.Fatalf("%d->%d: stitched %g != full-graph %g (diff %g)", src, dst, got, want[0], diff)
					}
					checked++
				}
			}
			if checked < 4 {
				t.Fatalf("only %d cross-shard pairs checked; graph or split degenerate", checked)
			}
		})
	}
}
