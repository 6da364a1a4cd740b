package spath

import (
	"context"
	"math/rand"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// randomTestGraph generates a jittered grid with removed edges, so random
// vertex pairs include unreachable ones (RemoveFrac strands some corners).
func randomTestGraph(t testing.TB, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := roadnet.GenConfig{
		Rows: 5 + rng.Intn(6), Cols: 5 + rng.Intn(6),
		SpacingM: 150 + 100*rng.Float64(), JitterFrac: 0.3 * rng.Float64(),
		RemoveFrac: 0.25 * rng.Float64(), ArterialEvery: 3 + rng.Intn(3),
		Motorway: rng.Intn(2) == 0,
		Origin:   geo.Point{Lon: 10, Lat: 57}, Seed: seed,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate graph (seed %d): %v", seed, err)
	}
	return g
}

// TestEngineDistancesMatchDijkstra: on random graphs, DijkstraEngine
// returns exactly what plain Dijkstra returns under ByLength, agreeing on
// unreachable pairs, with structurally valid paths and bit-identical costs.
func TestEngineDistancesMatchDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomTestGraph(t, seed)
		e := DijkstraEngine(g)
		rng := rand.New(rand.NewSource(seed * 97))
		for trial := 0; trial < 30; trial++ {
			src := randVertex(rng, g.NumVertices())
			dst := randVertex(rng, g.NumVertices())
			want, wantErr := Dijkstra(g, src, dst, ByLength)
			got, gotErr := e.ShortestCtx(context.Background(), src, dst)
			if wantErr != gotErr {
				t.Fatalf("seed %d %d->%d: dijkstra err=%v, engine err=%v", seed, src, dst, wantErr, gotErr)
			}
			if wantErr != nil {
				continue
			}
			if !got.Equal(want) || got.Cost != want.Cost {
				t.Fatalf("seed %d %d->%d: engine path (cost %v) differs from dijkstra (cost %v)", seed, src, dst, got.Cost, want.Cost)
			}
			if err := got.Validate(g); err != nil {
				t.Fatalf("seed %d %d->%d: invalid path: %v", seed, src, dst, err)
			}
			if got.Source() != src || got.Destination() != dst {
				t.Fatalf("seed %d: endpoints %d->%d, want %d->%d",
					seed, got.Source(), got.Destination(), src, dst)
			}
		}
	}
}

// TestEngineDisconnected checks DijkstraEngine returns ErrNoPath on a graph
// with no edges at all.
func TestEngineDisconnected(t *testing.T) {
	b := roadnet.NewBuilder(2, 0)
	b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	b.AddVertex(geo.Point{Lon: 10.1, Lat: 57})
	e := DijkstraEngine(b.Build())
	if _, err := e.ShortestCtx(context.Background(), 0, 1); err != ErrNoPath {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func randVertex(rng *rand.Rand, n int) roadnet.VertexID {
	return roadnet.VertexID(rng.Intn(n))
}

// TestEngineTopKMatchesPlain checks that Yen enumeration on a prebuilt
// weight table, the way served generation runs, returns exactly the plain
// TopK paths (a per-query fill), and the diversified variant exactly the
// plain DiversifiedTopK paths.
func TestEngineTopKMatchesPlain(t *testing.T) {
	g := randomTestGraph(t, 3)
	sim := func(a, b Path) float64 { // unweighted Jaccard stand-in, no import cycle
		seen := map[roadnet.EdgeID]bool{}
		for _, e := range a.Edges {
			seen[e] = true
		}
		inter, union := 0, len(seen)
		for _, e := range b.Edges {
			if seen[e] {
				inter++
			} else {
				union++
			}
		}
		if union == 0 {
			return 1
		}
		return float64(inter) / float64(union)
	}
	table := WeightTable(g, ByLength)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		wantTop, errTop := TopK(g, src, dst, 5, ByLength)
		wantDiv, errDiv := DiversifiedTopK(g, src, dst, 4, ByLength, sim, 0.8, 40)
		gotTop, err := topKCtx(context.Background(), g, table, nil, src, dst, 5)
		if (errTop == nil) != (err == nil) {
			t.Fatalf("table TopK err=%v, plain err=%v", err, errTop)
		}
		if errTop == nil {
			comparePathSets(t, "table TopK", gotTop, wantTop)
		}
		gotDiv, err := diversifiedCtx(context.Background(), g, table, nil, src, dst, 4, sim, 0.8, 40)
		if (errDiv == nil) != (err == nil) {
			t.Fatalf("table DiversifiedTopK err=%v, plain err=%v", err, errDiv)
		}
		if errDiv == nil {
			comparePathSets(t, "table DiversifiedTopK", gotDiv, wantDiv)
		}
	}
}

func comparePathSets(t *testing.T, label string, got, want []Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", label, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: path %d differs: %v vs %v", label, i, got[i].Edges, want[i].Edges)
		}
		if got[i].Cost != want[i].Cost {
			t.Fatalf("%s: path %d cost %v != %v", label, i, got[i].Cost, want[i].Cost)
		}
	}
}
