package spath

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"pathrank/internal/roadnet"
)

// refWithin returns the distance refSearch settled v at when it is within
// bound, and +Inf otherwise — what every distance entry point must write.
func refWithin(settled map[roadnet.VertexID]float64, v roadnet.VertexID, bound float64) float64 {
	if d, ok := settled[v]; ok && d <= bound {
		return d
	}
	return math.Inf(1)
}

func requireBits(t testing.TB, what string, got []float64, want func(j int) float64) {
	t.Helper()
	for j, d := range got {
		if math.Float64bits(d) != math.Float64bits(want(j)) {
			t.Fatalf("%s: entry %d is %v, reference %v", what, j, d, want(j))
		}
	}
}

// sweepQuery is one random configuration of the sweep: a source, a
// destination, a target multiset (duplicates and unreachable vertices
// allowed), seeds (a duplicate vertex, one seed above the bound and one
// at +Inf included) and the bounds to run under: +Inf, exactly a
// reachable vertex's distance (the <= tie), and half of it.
type sweepQuery struct {
	src, dst roadnet.VertexID
	targets  []roadnet.VertexID
	seeds    []Seed
	bounds   []float64
}

func newSweepQuery(rng *rand.Rand, g *roadnet.Graph, w Weight) sweepQuery {
	n := g.NumVertices()
	q := sweepQuery{src: randVertex(rng, n), dst: randVertex(rng, n)}
	for i := 0; i < 1+rng.Intn(6); i++ {
		q.targets = append(q.targets, randVertex(rng, n))
	}
	q.targets = append(q.targets, q.targets[0])
	settled, _ := refSearch(g, w, []Seed{{q.src, 0}}, false, -1, nil, nil)
	var reached []roadnet.VertexID // in vertex order: map order would be random
	for v := 0; v < n; v++ {
		if _, ok := settled[roadnet.VertexID(v)]; ok {
			reached = append(reached, roadnet.VertexID(v))
		}
	}
	tieV := reached[rng.Intn(len(reached))] // src is always settled
	tie := settled[tieV]
	q.targets = append(q.targets, tieV)
	q.bounds = []float64{math.Inf(1), tie, tie / 2}
	for i := 0; i < 1+rng.Intn(3); i++ {
		q.seeds = append(q.seeds, Seed{randVertex(rng, n), tie * rng.Float64() / 2})
	}
	q.seeds = append(q.seeds,
		Seed{q.seeds[0].V, q.seeds[0].Dist / 2},
		Seed{randVertex(rng, n), 2*tie + 1},
		Seed{randVertex(rng, n), math.Inf(1)})
	return q
}

// requireSweepMatchesReference runs every plain-search entry point on ws
// for q and compares each distance, bit for bit, with refSearch.
func requireSweepMatchesReference(t testing.TB, ws *Workspace, g *roadnet.Graph, w Weight, q sweepQuery) {
	t.Helper()
	inf := math.Inf(1)
	fwd, _ := refSearch(g, w, []Seed{{q.src, 0}}, false, -1, nil, nil)
	rev, _ := refSearch(g, w, []Seed{{q.dst, 0}}, true, -1, nil, nil)

	requireBits(t, fmt.Sprintf("DijkstraAll from %d", q.src), ws.DijkstraAll(g, q.src, w),
		func(v int) float64 { return refWithin(fwd, roadnet.VertexID(v), inf) })

	p, err := ws.Dijkstra(g, q.src, q.dst, w)
	if d, ok := fwd[q.dst]; !ok {
		if err != ErrNoPath {
			t.Fatalf("Dijkstra %d->%d: err %v, reference finds no path", q.src, q.dst, err)
		}
	} else if err != nil || math.Float64bits(p.Cost) != math.Float64bits(d) || p.Validate(g) != nil {
		t.Fatalf("Dijkstra %d->%d: cost %v err %v, reference %v", q.src, q.dst, p.Cost, err, d)
	}

	out := make([]float64, len(q.targets))
	all := make([]float64, g.NumVertices())
	for _, bound := range q.bounds {
		ws.BoundedDistances(g, q.src, q.targets, bound, w, out)
		requireBits(t, fmt.Sprintf("BoundedDistances from %d bound %v", q.src, bound), out,
			func(j int) float64 { return refWithin(fwd, q.targets[j], bound) })
		ws.bounded(g, q.dst, true, q.targets, bound, w, out)
		requireBits(t, fmt.Sprintf("reverse bounded to %d bound %v", q.dst, bound), out,
			func(j int) float64 { return refWithin(rev, q.targets[j], bound) })

		seededF, _ := refSearch(g, w, q.seeds, false, -1, nil, nil)
		ws.SeededDistances(g, q.seeds, false, bound, w, all)
		requireBits(t, fmt.Sprintf("SeededDistances %v bound %v", q.seeds, bound), all,
			func(v int) float64 { return refWithin(seededF, roadnet.VertexID(v), bound) })
		seededR, _ := refSearch(g, w, q.seeds, true, -1, nil, nil)
		ws.SeededDistances(g, q.seeds, true, bound, w, all)
		requireBits(t, fmt.Sprintf("reverse SeededDistances %v bound %v", q.seeds, bound), all,
			func(v int) float64 { return refWithin(seededR, roadnet.VertexID(v), bound) })
	}

	table := WeightTable(g, w)
	ws.BoundaryDistances(g, q.src, false, q.targets, table, out)
	requireBits(t, fmt.Sprintf("BoundaryDistances from %d", q.src), out,
		func(j int) float64 { return refWithin(fwd, q.targets[j], inf) })
	ws.BoundaryDistances(g, q.dst, true, q.targets, table, out)
	requireBits(t, fmt.Sprintf("BoundaryDistances to %d", q.dst), out,
		func(j int) float64 { return refWithin(rev, q.targets[j], inf) })
}

// requireSeedSweepsMatchReference runs unbounded single-seed sweeps,
// forward and reverse, from count vertices drawn by rng on a pooled
// workspace, and compares each distance, bit for bit, with refSearch.
func requireSeedSweepsMatchReference(t testing.TB, rng *rand.Rand, g *roadnet.Graph, w Weight, count int) {
	t.Helper()
	ws := GetWorkspace(g)
	defer ws.Release()
	all := make([]float64, g.NumVertices())
	for i := 0; i < count; i++ {
		seed := []Seed{{randVertex(rng, g.NumVertices()), 0}}
		from, _ := refSearch(g, w, seed, false, -1, nil, nil)
		ws.SeededDistances(g, seed, false, math.Inf(1), w, all)
		requireBits(t, fmt.Sprintf("SeededDistances from %d", seed[0].V), all,
			func(v int) float64 { return refWithin(from, roadnet.VertexID(v), math.Inf(1)) })
		to, _ := refSearch(g, w, seed, true, -1, nil, nil)
		ws.SeededDistances(g, seed, true, math.Inf(1), w, all)
		requireBits(t, fmt.Sprintf("reverse SeededDistances to %d", seed[0].V), all,
			func(v int) float64 { return refWithin(to, roadnet.VertexID(v), math.Inf(1)) })
	}
}

// randomFuzzGraph draws a small directed graph in fuzzGraph's encoding,
// which yields parallel edges and unreachable vertices.
func randomFuzzGraph(rng *rand.Rand) *roadnet.Graph {
	data := make([]byte, 4+3*(4+rng.Intn(40)))
	rng.Read(data)
	g, _, _, _ := fuzzGraph(data)
	return g
}

// TestSweepMatchesReference checks every entry point of the one plain
// relaxation loop — forward and reverse, single-source and seeded, bounded
// and unbounded, point, all-vertex and target-set — against the reference
// Dijkstra, Float64bits-equal.
func TestSweepMatchesReference(t *testing.T) {
	ws := NewWorkspace() // one workspace across every graph and query
	t.Run("random-worlds", func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			g := randomTestGraph(t, seed)
			rng := rand.New(rand.NewSource(seed * 17))
			for _, w := range []Weight{ByLength, ByTime} {
				for trial := 0; trial < 4; trial++ {
					requireSweepMatchesReference(t, ws, g, w, newSweepQuery(rng, g, w))
				}
				requireSeedSweepsMatchReference(t, rng, g, w, 4)
			}
		}
	})
	t.Run("parallel-edges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(29))
		for trial := 0; trial < 60; trial++ {
			g := randomFuzzGraph(rng)
			requireSweepMatchesReference(t, ws, g, ByLength, newSweepQuery(rng, g, ByLength))
			requireSeedSweepsMatchReference(t, rng, g, ByLength, 2)
		}
	})
}

// TestSweepSharedArraysLeakNoStamps interleaves, on one workspace, a
// forward sweep, a reverse sweep, a tree sweep with a spur search on it and
// a forward sweep again: all of them write the same label array,
// which the tree swaps out and back, and heap, and each must still
// answer exactly as on a fresh workspace.
func TestSweepSharedArraysLeakNoStamps(t *testing.T) {
	g := workspaceTestGraph(t)
	rng := rand.New(rand.NewSource(41))
	ws := NewWorkspace()
	for trial := 0; trial < 20; trial++ {
		q := newSweepQuery(rng, g, ByTime)
		requireSweepMatchesReference(t, ws, g, ByTime, q) // forward, then reverse

		// A spur search from src banning the first edge of the shortest path.
		first, err := Dijkstra(g, q.src, q.dst, ByTime)
		if err != nil || first.Len() == 0 {
			continue
		}
		spur := func(ws *Workspace) (Path, bool) {
			ws.fillWeights(g, ByTime)
			if !ws.buildTree(g, q.src, q.dst) {
				return Path{}, false
			}
			ws.resetBans(g)
			ws.banEdge(first.Edges[0])
			if reached, _ := ws.spurSearch(g, q.src, q.dst, math.Inf(1)); !reached {
				return Path{}, false
			}
			edges := ws.appendTree(g, appendParentEdges(nil, g, ws.lab, q.src, ws.meet), ws.meet, q.dst)
			return joinPaths(g, []roadnet.VertexID{q.src}, nil, edges, sumWeights(ws.wts, edges)), true
		}
		got, okGot := spur(ws)
		want, okWant := spur(NewWorkspace())
		if okGot != okWant || diffSequence([]Path{got}, []Path{want}) != "" {
			t.Fatalf("trial %d: spur search on the shared workspace differs from a fresh one", trial)
		}
		edges, okRef := refDijkstra(g, ByTime, q.src, q.dst, nil, map[roadnet.EdgeID]bool{first.Edges[0]: true})
		if okGot != okRef || (okRef && math.Float64bits(sumWeights(ws.wts, got.Edges)) != math.Float64bits(refPath(g, ByTime, q.src, edges).Cost)) {
			t.Fatalf("trial %d: spur search %v disagrees with the reference %v", trial, got.Edges, edges)
		}

		requireSweepMatchesReference(t, ws, g, ByTime, q) // forward again
	}
}

// FuzzSweepMatchesReference runs the sweep checks on arbitrary small
// directed graphs, the queries drawn from a generator seeded by the input.
func FuzzSweepMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 4, 3, 0, 1, 9, 1, 2, 40, 2, 3, 7, 3, 4, 90})                                                                          // a line
	f.Add([]byte{2, 0, 3, 4, 0, 1, 10, 0, 2, 30, 1, 3, 50, 2, 3, 20, 1, 2, 5})                                                               // a diamond
	f.Add([]byte{2, 0, 3, 2, 0, 1, 10, 2, 3, 10})                                                                                            // src and dst in different components
	f.Add([]byte{1, 0, 2, 5, 0, 1, 10, 0, 1, 60, 0, 1, 200, 1, 2, 3, 1, 2, 77, 2, 0, 8})                                                     // parallel edges
	f.Add([]byte{7, 0, 8, 7, 0, 1, 1, 1, 2, 2, 0, 3, 3, 3, 4, 4, 1, 4, 5, 4, 5, 6, 2, 5, 7, 4, 7, 8, 5, 8, 9, 7, 8, 10, 3, 6, 11, 6, 7, 12}) // a 3x3 grid
	f.Fuzz(func(t *testing.T, data []byte) {
		g, _, _, _ := fuzzGraph(data)
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		requireSweepMatchesReference(t, NewWorkspace(), g, ByLength, newSweepQuery(rng, g, ByLength))
		requireSeedSweepsMatchReference(t, rng, g, ByLength, 2)
	})
}
