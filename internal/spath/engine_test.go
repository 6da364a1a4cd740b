package spath

import (
	"context"
	"math"
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

func testEngines(t testing.TB, g *roadnet.Graph, w Weight) []Engine {
	t.Helper()
	return []Engine{
		NewDijkstraEngine(g, w),
		NewEngine(EngineCH, g, w),
	}
}

// TestEngineDistancesMatchDijkstra is the core equivalence property: on
// random graphs, every engine returns exactly the distances plain Dijkstra
// returns — including agreeing on unreachable pairs — and structurally
// valid paths with bit-identical costs.
func TestEngineDistancesMatchDijkstra(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomTestGraph(t, seed)
		engines := testEngines(t, g, ByLength)
		rng := rand.New(rand.NewSource(seed * 97))
		for trial := 0; trial < 30; trial++ {
			src := randVertex(rng, g.NumVertices())
			dst := randVertex(rng, g.NumVertices())
			want, wantErr := Dijkstra(g, src, dst, ByLength)
			for _, e := range engines {
				got, gotErr := e.ShortestCtx(context.Background(), src, dst)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d %s %d->%d: dijkstra err=%v, engine err=%v",
						seed, e.Kind(), src, dst, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				// Exact-distance engines must agree bit for bit: every
				// backend re-sums its unpacked path left to right, the same
				// association Dijkstra's relaxation uses.
				if got.Cost != want.Cost {
					t.Fatalf("seed %d %s %d->%d: cost %v != dijkstra %v",
						seed, e.Kind(), src, dst, got.Cost, want.Cost)
				}
				if err := got.Validate(g); err != nil {
					t.Fatalf("seed %d %s %d->%d: invalid path: %v", seed, e.Kind(), src, dst, err)
				}
				if got.Source() != src || got.Destination() != dst {
					t.Fatalf("seed %d %s: endpoints %d->%d, want %d->%d",
						seed, e.Kind(), got.Source(), got.Destination(), src, dst)
				}
			}
		}
	}
}

// TestEngineManyToManyMatchesDijkstraAll checks the many-to-many matrix of
// every engine against the DijkstraAll oracle, over several bounds
// including +Inf: within the bound the distances are exact, beyond it +Inf.
//
// "Exact" here means up to floating-point association: CH joins a pair's
// distance as upward-half + downward-half over precomputed shortcut sums,
// which can differ from Dijkstra's strictly sequential accumulation in the
// last ulp. Point-to-point queries re-sum the unpacked path and are
// bit-identical (TestEngineDistancesMatchDijkstra); the matrix is compared
// with a relative tolerance of a few ulps. Pairs whose oracle distance sits
// within that tolerance of the bound are skipped — an ulp decides which
// side of the cutoff they land on.
func TestEngineManyToManyMatchesDijkstraAll(t *testing.T) {
	const relTol = 1e-12
	for seed := int64(1); seed <= 4; seed++ {
		g := randomTestGraph(t, seed+10)
		engines := testEngines(t, g, ByLength)
		rng := rand.New(rand.NewSource(seed * 131))
		nsrc, ntgt := 3+rng.Intn(3), 3+rng.Intn(3)
		sources := make([]roadnet.VertexID, nsrc)
		targets := make([]roadnet.VertexID, ntgt)
		for i := range sources {
			sources[i] = randVertex(rng, g.NumVertices())
		}
		for j := range targets {
			targets[j] = randVertex(rng, g.NumVertices())
		}
		oracle := make([][]float64, nsrc)
		for i, s := range sources {
			oracle[i] = DijkstraAll(g, s, ByLength)
		}
		for _, bound := range []float64{500, 2000, math.Inf(1)} {
			for _, e := range engines {
				out := make([][]float64, nsrc)
				for i := range out {
					out[i] = make([]float64, ntgt)
				}
				e.ManyToMany(sources, targets, bound, out)
				for i := range sources {
					for j, tv := range targets {
						want := oracle[i][tv]
						if !math.IsInf(bound, 1) && math.Abs(want-bound) <= relTol*bound {
							continue // an ulp decides the cutoff side
						}
						if want > bound {
							want = math.Inf(1)
						}
						got := out[i][j]
						if math.IsInf(got, 1) != math.IsInf(want, 1) {
							t.Fatalf("seed %d %s bound %v: d(%d,%d) = %v, oracle %v",
								seed, e.Kind(), bound, sources[i], tv, got, want)
						}
						if !math.IsInf(want, 1) && math.Abs(got-want) > relTol*want {
							t.Fatalf("seed %d %s bound %v: d(%d,%d) = %v, oracle %v (beyond ulp tolerance)",
								seed, e.Kind(), bound, sources[i], tv, got, want)
						}
					}
				}
			}
		}
	}
}

// TestEngineTopKMatchesPlain checks that Yen enumeration on a prepared
// engine returns exactly the plain TopK paths, and the diversified variant
// exactly the plain DiversifiedTopK paths.
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
	engines := testEngines(t, g, ByLength)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		wantTop, errTop := TopK(g, src, dst, 5, ByLength)
		wantDiv, errDiv := DiversifiedTopK(g, src, dst, 4, ByLength, sim, 0.8, 40)
		for _, e := range engines {
			gotTop, err := topKCtx(context.Background(), e.Graph(), e, nil, src, dst, 5)
			if (errTop == nil) != (err == nil) {
				t.Fatalf("%s TopK err=%v, plain err=%v", e.Kind(), err, errTop)
			}
			if errTop == nil {
				comparePathSets(t, e.Kind().String()+" TopK", gotTop, wantTop)
			}
			gotDiv, err := diversifiedCtx(context.Background(), e.Graph(), e, nil, src, dst, 4, sim, 0.8, 40)
			if (errDiv == nil) != (err == nil) {
				t.Fatalf("%s DiversifiedTopK err=%v, plain err=%v", e.Kind(), err, errDiv)
			}
			if errDiv == nil {
				comparePathSets(t, e.Kind().String()+" DiversifiedTopK", gotDiv, wantDiv)
			}
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

// TestEngineDisconnected checks unreachable-pair agreement on a graph with
// no edges at all.
func TestEngineDisconnected(t *testing.T) {
	g := disconnectedPair(t)
	for _, e := range testEngines(t, g, ByLength) {
		if _, err := e.ShortestCtx(context.Background(), 0, 1); err != ErrNoPath {
			t.Fatalf("%s: err = %v, want ErrNoPath", e.Kind(), err)
		}
		out := [][]float64{{0}}
		e.ManyToMany([]roadnet.VertexID{0}, []roadnet.VertexID{1}, math.Inf(1), out)
		if !math.IsInf(out[0][0], 1) {
			t.Fatalf("%s: many-to-many over a gap = %v, want +Inf", e.Kind(), out[0][0])
		}
		out = [][]float64{{1}}
		e.ManyToMany([]roadnet.VertexID{0}, []roadnet.VertexID{0}, math.Inf(1), out)
		if out[0][0] != 0 {
			t.Fatalf("%s: self distance = %v, want 0", e.Kind(), out[0][0])
		}
	}
}

// TestPrepRoundTrip checks the persistence route a Prep's hierarchy takes
// in an artifact: its flat arrays (RawData/AssembleCH), reassembled, answer
// every query identically.
func TestPrepRoundTrip(t *testing.T) {
	g := randomTestGraph(t, 5)
	prep := BuildPrep(g, PrepConfig{})
	loaded := AssembleCH(g, prep.CH.RawData())
	if loaded.NumShortcuts() != prep.CH.NumShortcuts() {
		t.Fatalf("shortcuts %d != %d", loaded.NumShortcuts(), prep.CH.NumShortcuts())
	}
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 25; trial++ {
		src := randVertex(rng, g.NumVertices())
		dst := randVertex(rng, g.NumVertices())
		want, wantErr := prep.CH.Query(src, dst)
		got, gotErr := loaded.Query(src, dst)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%d->%d: err %v vs %v", src, dst, wantErr, gotErr)
		}
		if wantErr == nil && (!got.Equal(want) || got.Cost != want.Cost) {
			t.Fatalf("%d->%d: reassembled CH path differs", src, dst)
		}
	}
}

// TestCHIndexIsMinWeightSorted pins the one unpacking index BuildCH
// produces: keys strictly ascending, one per distinct (from,to), each
// naming the cheapest parallel arc and the earliest one on a tie.
func TestCHIndexIsMinWeightSorted(t *testing.T) {
	d := BuildCH(randomTestGraph(t, 5), ByLength).RawData()
	want := map[int64]int32{}
	for i := range d.ArcFrom {
		key := arcKey(d.ArcFrom[i], d.ArcTo[i])
		if prev, ok := want[key]; !ok || d.ArcWeight[i] < d.ArcWeight[prev] {
			want[key] = int32(i)
		}
	}
	if len(d.IdxKeys) != len(want) || len(d.IdxVals) != len(want) {
		t.Fatalf("index holds %d/%d entries for %d distinct arcs", len(d.IdxKeys), len(d.IdxVals), len(want))
	}
	for i, key := range d.IdxKeys {
		if i > 0 && key <= d.IdxKeys[i-1] {
			t.Fatalf("index keys not strictly ascending at %d", i)
		}
		if d.IdxVals[i] != want[key] {
			t.Fatalf("key %#x -> arc %d, want %d", key, d.IdxVals[i], want[key])
		}
	}
}

// TestPrepEngineSelection checks the engine materialization rules: a prep
// with a hierarchy wires a CH engine, a nil or empty one wires none.
func TestPrepEngineSelection(t *testing.T) {
	g := gridGraph(t, 5, 5)
	if e := BuildPrep(g, PrepConfig{}).Engine(g); e == nil || e.Kind() != EngineCH {
		t.Fatalf("prep engine = %v", e)
	}
	if e := (&Prep{}).Engine(g); e != nil {
		t.Fatalf("empty prep produced an engine")
	}
	var nilPrep *Prep
	if e := nilPrep.Engine(g); e != nil {
		t.Fatalf("nil prep produced an engine")
	}
}

// TestCHQueryAllocs locks in the zero-alloc CH query contract: steady-state
// queries allocate only the returned path.
func TestCHQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside sync.Pool")
	}
	g := gridGraph(t, 8, 8)
	ch := BuildCH(g, ByLength)
	rng := rand.New(rand.NewSource(9))
	pairs := make([][2]roadnet.VertexID, 16)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{randVertex(rng, g.NumVertices()), randVertex(rng, g.NumVertices())}
	}
	// Warm the workspace pool.
	for _, p := range pairs {
		_, _ = ch.Query(p[0], p[1])
	}
	avg := testing.AllocsPerRun(50, func() {
		for _, p := range pairs {
			_, _ = ch.Query(p[0], p[1])
		}
	})
	perQuery := avg / float64(len(pairs))
	// The path result needs up to ~4 allocations (edges, vertices, and
	// growth); search state must contribute none.
	if perQuery > 5 {
		t.Fatalf("CH query allocates %.1f allocs/op, want <= 5 (result only)", perQuery)
	}
}
