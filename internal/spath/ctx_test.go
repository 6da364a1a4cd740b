package spath

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"pathrank/internal/allocpin"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// flipCtx is a context whose Err starts returning context.Canceled after
// its nth poll — a deterministic way to cancel "mid-search" without
// timers. Done returns a non-nil (never-closed) channel so bindContext
// treats it as cancelable.
type flipCtx struct {
	context.Context
	polls, after int
	done         chan struct{}
}

func newFlipCtx(after int) *flipCtx {
	return &flipCtx{Context: context.Background(), after: after, done: make(chan struct{})}
}

func (c *flipCtx) Done() <-chan struct{} { return c.done }

func (c *flipCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestCtxVariantsBitIdentical checks that the context-aware entry points
// with a live (cancelable, never-canceled) context return exactly the
// paths of their context-free counterparts across random queries — the
// guarantee that lets the serving layer thread request contexts through
// the hot path without re-validating rankings.
func TestCtxVariantsBitIdentical(t *testing.T) {
	g := workspaceTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sim := func(a, b Path) float64 { return jaccard(a, b) }
	rng := rand.New(rand.NewSource(5))
	table := WeightTable(g, ByLength)
	for i := 0; i < 30; i++ {
		src := roadnet.VertexID(rng.Intn(g.NumVertices()))
		dst := roadnet.VertexID(rng.Intn(g.NumVertices()))

		want, errWant := TopK(g, src, dst, 5, ByLength)
		got, errGot := topKCtx(ctx, g, nil, ByLength, src, dst, 5)
		requireSamePaths(t, "TopK with ctx", want, got, errWant, errGot)

		want, errWant = DiversifiedTopK(g, src, dst, 4, ByLength, sim, 0.8, 40)
		got, errGot = diversifiedCtx(ctx, g, nil, ByLength, src, dst, 4, sim, 0.8, 40)
		requireSamePaths(t, "DiversifiedTopK with ctx", want, got, errWant, errGot)

		want, errWant = topKCtx(context.Background(), g, table, nil, src, dst, 5)
		got, errGot = topKCtx(ctx, g, table, nil, src, dst, 5)
		requireSamePaths(t, "TopK with ctx on a weight table", want, got, errWant, errGot)

		pw, ew := DijkstraCtx(context.Background(), g, src, dst, ByLength)
		pg, eg := DijkstraCtx(ctx, g, src, dst, ByLength)
		requireSamePaths(t, "DijkstraCtx", []Path{pw}, []Path{pg}, ew, eg)
	}
}

// topKCtx and diversifiedCtx are TopK and DiversifiedTopK on a context
// and, when wts is non-nil, a prebuilt weight table: the one enumeration
// body, the way DiversifiedTopKStatsCtx runs it, without the statistics.
func topKCtx(ctx context.Context, g *roadnet.Graph, wts []float64, w Weight, src, dst roadnet.VertexID, k int) ([]Path, error) {
	paths, _, err := enumerate(ctx, g, wts, w, src, dst, k, nil, 0, k)
	return paths, err
}

func diversifiedCtx(ctx context.Context, g *roadnet.Graph, wts []float64, w Weight, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, error) {
	paths, _, err := enumerate(ctx, g, wts, w, src, dst, k, sim, threshold, maxProbe)
	return paths, err
}

func requireSamePaths(t *testing.T, what string, want, got []Path, errWant, errGot error) {
	t.Helper()
	if (errWant == nil) != (errGot == nil) {
		t.Fatalf("%s: error mismatch: %v vs %v", what, errWant, errGot)
	}
	if errWant != nil {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d paths", what, len(want), len(got))
	}
	for i := range want {
		if !want[i].Equal(got[i]) || want[i].Cost != got[i].Cost {
			t.Fatalf("%s: path %d differs", what, i)
		}
	}
}

// jaccard is a cheap unweighted edge-overlap similarity for tests.
func jaccard(a, b Path) float64 {
	seen := make(map[roadnet.EdgeID]bool, len(a.Edges))
	for _, e := range a.Edges {
		seen[e] = true
	}
	inter := 0
	for _, e := range b.Edges {
		if seen[e] {
			inter++
		}
	}
	union := len(a.Edges) + len(b.Edges) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TestCtxPreCanceled checks that an already-canceled context fails every
// entry point with the context's error.
func TestCtxPreCanceled(t *testing.T) {
	g := workspaceTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)

	if _, err := DijkstraCtx(ctx, g, src, dst, ByLength); !errors.Is(err, context.Canceled) {
		t.Fatalf("DijkstraCtx: err = %v, want Canceled", err)
	}
	if _, err := topKCtx(ctx, g, nil, ByLength, src, dst, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopK with ctx: err = %v, want Canceled", err)
	}
	if _, err := topKCtx(ctx, g, WeightTable(g, ByLength), nil, src, dst, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopK with ctx on a weight table: err = %v, want Canceled", err)
	}
}

// TestCtxCancelMidEnumerationLeavesPoolClean cancels a Yen enumeration
// mid-flight (deterministically, after a fixed number of context polls)
// and then re-runs the same query uncanceled on the shared pool: the
// result must be bit-identical to a fresh workspace's, proving a canceled
// search cannot corrupt pooled state.
func TestCtxCancelMidEnumerationLeavesPoolClean(t *testing.T) {
	g := workspaceTestGraph(t)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)

	want, err := TopK(g, src, dst, 8, ByLength)
	if err != nil {
		t.Fatal(err)
	}
	canceledAtLeastOnce := false
	// Flip after varying poll counts so cancellation lands in different
	// phases of the enumeration (first Dijkstra, early spur, late spur).
	for _, after := range []int{0, 1, 2, 3, 5, 8} {
		_, err := topKCtx(newFlipCtx(after), g, nil, ByLength, src, dst, 8)
		if err == nil {
			// Enumeration finished before the flip; still a valid round.
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: err = %v, want Canceled", after, err)
		}
		canceledAtLeastOnce = true
		got, err := TopK(g, src, dst, 8, ByLength)
		if err != nil {
			t.Fatalf("after=%d: rerun: %v", after, err)
		}
		requireSamePaths(t, "post-cancel rerun", want, got, nil, nil)
	}
	if !canceledAtLeastOnce {
		t.Fatal("no flip context canceled the enumeration; test shape broken")
	}
}

// TestCtxCancelStopsSlowQuery is the wall-clock acceptance check: a
// genuinely slow Yen enumeration on a large network returns promptly with
// the context's error when the context is canceled mid-flight.
func TestCtxCancelStopsSlowQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("slow-query cancellation test")
	}
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 40, Cols: 40, SpacingM: 250, JitterFrac: 0.25,
		RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
		Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	// k=3000 enumerates for >1.5s uncanceled on a fast machine; the
	// cancellation at 20ms must cut that to near-nothing.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = topKCtx(ctx, g, nil, ByLength, src, dst, 3000)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v after %v, want Canceled (query completed too fast to observe cancellation?)", err, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to take effect", elapsed)
	}
}

// TestCtxVariantAllocsMatch pins what TopK k=5 allocates and guards the
// zero-extra-alloc promise: with a live cancelable context it allocates
// exactly what TopK does.
func TestCtxVariantAllocsMatch(t *testing.T) {
	g := workspaceTestGraph(t)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	want := allocpin.Count{Allocs: 25, Bytes: 1768}
	allocpin.Pin(t, want, func() {
		if _, err := TopK(g, src, dst, 5, ByLength); err != nil {
			t.Fatal(err)
		}
	})
	allocpin.Pin(t, want, func() {
		if _, err := topKCtx(ctx, g, nil, ByLength, src, dst, 5); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCtxTreeSweep covers the reverse shortest-path tree every enumeration
// builds before its first spur search. A context canceled before the sweep
// or during it fails the enumeration with the context's error, no
// candidates and no spur search; the pooled workspace it ran on then serves
// the next query exactly; and a dst outside src's component is ErrNoPath.
func TestCtxTreeSweep(t *testing.T) {
	g := benchWorldGraph(t)
	table := WeightTable(g, ByLength)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(benchWorldSide*benchWorldSide-1) // opposite grid corners
	want, err := topKCtx(context.Background(), g, table, nil, src, dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	ws := GetWorkspace(g)
	defer ws.Release()
	ws.useWeights(table)
	full := ws.heap.pops
	if !ws.buildTree(g, src, dst) {
		t.Fatal("tree sweep did not reach src")
	}
	full = ws.heap.pops - full
	if full < 3*ctxCheckEvery {
		t.Fatalf("test shape broken: the tree sweep pops %d vertices, fewer than three context polls", full)
	}
	// after 0 cancels at bindContext's eager poll, before the sweep; 1 and
	// 2 at the sweep's first and second amortized polls.
	for _, after := range []int{0, 1, 2} {
		ws.bindContext(newFlipCtx(after))
		before := ws.heap.pops
		y, err := newYenEnum(g, ws, src, dst, 8)
		popped := ws.heap.pops - before
		if !errors.Is(err, context.Canceled) || y != nil {
			t.Fatalf("after=%d: enumerator %v, err %v; want none and Canceled", after, y, err)
		}
		if (after == 0) != (popped == 0) || popped >= full {
			t.Fatalf("after=%d: canceled after %d of the sweep's %d pops", after, popped, full)
		}
		paths, st, err := enumerate(newFlipCtx(after), g, table, nil, src, dst, 8, nil, 0, 8)
		if !errors.Is(err, context.Canceled) || paths != nil || st.SpurSearches != 0 {
			t.Fatalf("after=%d: enumerate returned %d paths after %d spur searches, err %v; want none, none and Canceled", after, len(paths), st.SpurSearches, err)
		}

		ws.bindContext(context.Background())
		if y, err = newYenEnum(g, ws, src, dst, 8); err != nil {
			t.Fatalf("after=%d: rerun: %v", after, err)
		}
		for len(y.paths) < len(want) {
			if _, ok := y.next(); !ok {
				break
			}
		}
		requireSameSequence(t, "rerun on the canceled workspace", y.paths, want)
	}

	t.Run("unreachable", func(t *testing.T) {
		b := roadnet.NewBuilder(4, 4)
		for i := 0; i < 4; i++ {
			b.AddVertex(geo.Point{Lon: 10 + 0.001*float64(i), Lat: 57})
		}
		b.AddBidirectional(0, 1, roadnet.Residential)
		b.AddBidirectional(2, 3, roadnet.Residential)
		g := b.Build()
		for _, wts := range [][]float64{nil, WeightTable(g, ByLength)} {
			if paths, _, err := enumerate(context.Background(), g, wts, ByLength, 0, 3, 5, nil, 0, 5); err != ErrNoPath || paths != nil {
				t.Fatalf("table %v: %d paths, err %v; want none and ErrNoPath", wts != nil, len(paths), err)
			}
		}
		ws := NewWorkspace()
		ws.fillWeights(g, ByLength)
		if y, err := newYenEnum(g, ws, 0, 3, 5); err != ErrNoPath || y != nil {
			t.Fatalf("enumerator %v, err %v; want none and ErrNoPath", y, err)
		}
		y, err := newYenEnum(g, ws, 1, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Dijkstra(g, 1, 0, ByLength)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSequence(t, "query after ErrNoPath on the same workspace", y.paths, []Path{want})
	})
}
