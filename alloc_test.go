package pathrank_test

import (
	"context"
	"testing"

	"pathrank"

	"pathrank/internal/allocpin"
	"pathrank/internal/node2vec"
	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// pinRow is one pinned benchmark row: what one run allocates, and the run.
type pinRow struct {
	name string
	want allocpin.Count
	run  func()
}

// TestAllocPins pins, by allocpin's rule, the allocations of the micro
// benchmarks' rows that no package test pins. One run is one pass over the
// row's benchmark inputs: the 32 pairs of a query row, one call of the
// others, and 8 candidate sets of a served scoring shape. A match holds
// one pooled workspace at a time (the decode's goes back before the
// stitch takes one), so one warm-up match settles the pool.
// The rows pinned elsewhere are Dijkstra (TestDijkstraAllocs), TopK5
// (TestCtxVariantAllocsMatch), DiversifiedTopK5Table and the served
// enumerations (TestYenAllocBudget), GRUForwardBackward
// (TestGRUForwardBackwardAllocs), GemmNT (TestGemmNTAllocs), the router's
// two queries (TestRouterQueryAllocs) and a served cache hit
// (TestCacheHitAllocs).
func TestAllocPins(t *testing.T) {
	if allocpin.Race {
		t.Skip("the race detector allocates on its own")
	}
	g := microGraph(t)
	sim := pathsim.WeightedJaccardSim(g)
	r := benchQueryRanker(t)
	cancelable, cancel := context.WithCancel(context.Background())
	defer cancel()

	p1, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), spath.ByTime)
	if err != nil {
		t.Fatal(err)
	}
	half, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()/2), spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	trace := traj.SampleGPS(g, half, traj.GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: 1})
	matcher := traj.NewMatcher(g, traj.DefaultMatchConfig())

	rank := func(ctx context.Context) func() {
		pairs := microPairs(g.NumVertices(), 9)
		return func() {
			for _, p := range pairs {
				r.Rank(ctx, pathrank.RankRequest{Src: p[0], Dst: p[1]})
			}
		}
	}
	dtkdi := microPairs(g.NumVertices(), 3)
	rows := []pinRow{
		{"DiversifiedTopK5", allocpin.Count{Allocs: 1007, Bytes: 148688}, func() {
			for _, p := range dtkdi {
				spath.DiversifiedTopK(g, p[0], p[1], 5, spath.ByLength, sim, 0.8, 50)
			}
		}},
		{"WeightedJaccard", allocpin.Count{}, func() { sim(p1, p2) }},
		{"Node2vecWalks", allocpin.Count{Allocs: 2070, Bytes: 115784}, func() {
			node2vec.GenerateWalks(g, node2vec.WalkConfig{WalksPerVertex: 1, WalkLength: 20, P: 1, Q: 0.5, Seed: 1})
		}},
		{"MapMatch", allocpin.Count{Allocs: 433, Bytes: 27976}, func() {
			if _, err := matcher.Match(trace); err != nil {
				t.Fatal(err)
			}
		}},
		{"RankQuery", allocpin.Count{Allocs: 1165, Bytes: 169184}, rank(context.Background())},
		{"RankWithContext", allocpin.Count{Allocs: 1165, Bytes: 169184}, rank(cancelable)},
	}
	served := servedWorld(t)
	m := servedModel(t, served.NumVertices())
	for shape, want := range []allocpin.Count{{Allocs: 16, Bytes: 1152}, {Allocs: 16, Bytes: 2816}} {
		sweeps := servedSweeps(t, shape)[:8]
		rows = append(rows, pinRow{"ScoreBatchFused/" + servedShapes[shape].name, want, func() {
			for _, sweep := range sweeps {
				m.ScoreBatchFused(sweep)
			}
		}})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { allocpin.Pin(t, row.want, row.run) })
	}
}
