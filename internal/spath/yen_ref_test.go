package spath

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"pathrank/internal/allocpin"
	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// This file holds an independent reference for the Yen enumerator. Every
// other exactness check in the repository — the table-vs-fill tests, the
// benchmark's oracle — runs yenEnum on both sides, so a defect in its spur
// loop is invisible to them. refYen shares nothing with it: it spurs from
// every index of every emitted path, searches with a map-based Dijkstra
// that has no workspace and no heuristic, and keeps its candidates in a
// stably sorted slice. The same map-based Dijkstra (refSearch) is the
// reference for Workspace.sweep in sweep_test.go.

// refYen is textbook Yen: next returns the loopless src→dst paths of g
// under w in increasing cost, equal costs in the order they were found.
type refYen struct {
	g        *roadnet.Graph
	w        Weight
	src, dst roadnet.VertexID
	a, b     []Path
	searches int
	// onSearch, when non-nil, sees every search next makes, the first
	// path's (no bans) and each spur search, before it runs.
	onSearch func(src roadnet.VertexID, banV map[roadnet.VertexID]bool, banE map[roadnet.EdgeID]bool)
}

func (r *refYen) next() (Path, bool) {
	if len(r.a) == 0 {
		if r.onSearch != nil {
			r.onSearch(r.src, nil, nil)
		}
		edges, ok := refDijkstra(r.g, r.w, r.src, r.dst, nil, nil)
		if !ok {
			return Path{}, false
		}
		r.a = append(r.a, refPath(r.g, r.w, r.src, edges))
		return r.a[0], true
	}
	prev := r.a[len(r.a)-1]
	for i := 0; i < len(prev.Edges); i++ {
		banE := map[roadnet.EdgeID]bool{}
		for _, p := range r.a {
			if len(p.Edges) > i && sameEdges(p.Edges[:i], prev.Edges[:i]) {
				banE[p.Edges[i]] = true
			}
		}
		banV := map[roadnet.VertexID]bool{}
		for _, v := range prev.Vertices[:i] {
			banV[v] = true
		}
		r.searches++
		if r.onSearch != nil {
			r.onSearch(prev.Vertices[i], banV, banE)
		}
		spur, ok := refDijkstra(r.g, r.w, prev.Vertices[i], r.dst, banV, banE)
		if !ok {
			continue
		}
		edges := append(append([]roadnet.EdgeID(nil), prev.Edges[:i]...), spur...)
		known := false
		for _, q := range r.b {
			known = known || sameEdges(q.Edges, edges)
		}
		if !known {
			r.b = append(r.b, refPath(r.g, r.w, r.src, edges))
		}
	}
	if len(r.b) == 0 {
		return Path{}, false
	}
	sort.SliceStable(r.b, func(i, j int) bool { return r.b[i].Cost < r.b[j].Cost })
	p := r.b[0]
	r.b = r.b[1:]
	r.a = append(r.a, p)
	return p, true
}

func sameEdges(a, b []roadnet.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refPath builds the path of edges from src, its cost summed left to right.
func refPath(g *roadnet.Graph, w Weight, src roadnet.VertexID, edges []roadnet.EdgeID) Path {
	p := Path{Vertices: []roadnet.VertexID{src}, Edges: edges}
	for _, eid := range edges {
		e := g.Edge(eid)
		p.Vertices = append(p.Vertices, e.To)
		p.Cost += w(e)
	}
	return p
}

type refItem struct {
	v    roadnet.VertexID
	dist float64
}
type refHeap []refItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// refDijkstra returns the edges of a cheapest src→dst path avoiding the
// banned vertices and edges.
func refDijkstra(g *roadnet.Graph, w Weight, src, dst roadnet.VertexID, banV map[roadnet.VertexID]bool, banE map[roadnet.EdgeID]bool) ([]roadnet.EdgeID, bool) {
	settled, parent := refSearch(g, w, []Seed{{src, 0}}, false, dst, banV, banE)
	if _, ok := settled[dst]; !ok {
		return nil, false
	}
	var rev []roadnet.EdgeID
	for v := dst; v != src; v = g.Edge(parent[v]).From {
		rev = append(rev, parent[v])
	}
	edges := make([]roadnet.EdgeID, len(rev))
	for i, e := range rev {
		edges[len(rev)-1-i] = e
	}
	return edges, true
}

// refSearch is a map-based Dijkstra with lazy deletion from seeds (the
// cheapest of duplicates wins), over in-arcs when rev, avoiding the banned
// vertices and edges and stopping once dst is settled (never when dst is
// negative). It returns the settled distances and the parent edges.
func refSearch(g *roadnet.Graph, w Weight, seeds []Seed, rev bool, dst roadnet.VertexID, banV map[roadnet.VertexID]bool, banE map[roadnet.EdgeID]bool) (map[roadnet.VertexID]float64, map[roadnet.VertexID]roadnet.EdgeID) {
	dist := map[roadnet.VertexID]float64{}
	parent := map[roadnet.VertexID]roadnet.EdgeID{}
	settled := map[roadnet.VertexID]float64{}
	h := &refHeap{}
	for _, s := range seeds {
		if old, ok := dist[s.V]; !ok || s.Dist < old {
			dist[s.V] = s.Dist
			heap.Push(h, refItem{v: s.V, dist: s.Dist})
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if _, done := settled[it.v]; done {
			continue
		}
		settled[it.v] = it.dist
		if it.v == dst {
			break
		}
		arcs := g.OutEdges(it.v)
		if rev {
			arcs = g.InEdges(it.v)
		}
		for _, eid := range arcs {
			e := g.Edge(eid)
			next := e.To
			if rev {
				next = e.From
			}
			if banE[eid] || banV[next] {
				continue
			}
			nd := it.dist + w(e)
			if old, ok := dist[next]; !ok || nd < old {
				dist[next] = nd
				parent[next] = eid
				heap.Push(h, refItem{v: next, dist: nd})
			}
		}
	}
	return settled, parent
}

// refSeq memoizes a reference enumeration so one pair's sequence serves
// every k and every setup it is compared against.
type refSeq struct {
	y     refYen
	paths []Path
	dry   bool
}

func newRefSeq(g *roadnet.Graph, w Weight, src, dst roadnet.VertexID) *refSeq {
	return &refSeq{y: refYen{g: g, w: w, src: src, dst: dst}}
}

// first returns up to n leading paths of the sequence.
func (s *refSeq) first(n int) []Path {
	for len(s.paths) < n && !s.dry {
		p, ok := s.y.next()
		if !ok {
			s.dry = true
			break
		}
		s.paths = append(s.paths, p)
	}
	return s.paths[:min(n, len(s.paths))]
}

// diversified is the greedy D-TkDI filter over the reference sequence.
func (s *refSeq) diversified(k int, sim Similarity, threshold float64, maxProbe int) []Path {
	accepted, _ := s.diversifiedStats(k, sim, threshold, maxProbe)
	return accepted
}

// diversifiedStats is diversified with the EnumStats fields that describe
// it, all but SpurSearches: the paths examined, the cost of the last one,
// and whether the sequence ran out first.
func (s *refSeq) diversifiedStats(k int, sim Similarity, threshold float64, maxProbe int) ([]Path, EnumStats) {
	var accepted []Path
	var st EnumStats
	for i := 0; i < maxProbe && len(accepted) < k; i++ {
		seq := s.first(i + 1)
		if len(seq) <= i {
			st.Exhausted = true
			break
		}
		st.Probes, st.MaxCost = i+1, seq[i].Cost
		ok := true
		for _, q := range accepted {
			ok = ok && sim(seq[i], q) <= threshold
		}
		if ok {
			accepted = append(accepted, seq[i])
		}
	}
	return accepted, st
}

// diffSequence describes the first difference between got and want —
// vertices, edges or the bits of a cost — or returns "" when there is none.
func diffSequence(got, want []Path) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d paths, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameEdges(got[i].Edges, want[i].Edges) {
			return fmt.Sprintf("path %d edges %v, want %v", i, got[i].Edges, want[i].Edges)
		}
		if fmt.Sprint(got[i].Vertices) != fmt.Sprint(want[i].Vertices) {
			return fmt.Sprintf("path %d vertices %v, want %v", i, got[i].Vertices, want[i].Vertices)
		}
		if math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
			return fmt.Sprintf("path %d cost %x, want %x", i, math.Float64bits(got[i].Cost), math.Float64bits(want[i].Cost))
		}
	}
	return ""
}

func requireSameSequence(t testing.TB, what string, got, want []Path) {
	t.Helper()
	if d := diffSequence(got, want); d != "" {
		t.Fatalf("%s: %s", what, d)
	}
}

// enumSetup is one way to run the production enumeration under w: wts nil
// is the plain entry points, which fill the workspace's table per query;
// otherwise the enumeration reads wts, a prebuilt WeightTable of w.
type enumSetup struct {
	name string
	w    Weight
	wts  []float64
}

func (s enumSetup) topK(g *roadnet.Graph, src, dst roadnet.VertexID, k int) ([]Path, error) {
	if s.wts == nil {
		return TopK(g, src, dst, k, s.w)
	}
	return topKCtx(context.Background(), g, s.wts, nil, src, dst, k)
}

func (s enumSetup) diversified(g *roadnet.Graph, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, error) {
	if s.wts == nil {
		return DiversifiedTopK(g, src, dst, k, s.w, sim, threshold, maxProbe)
	}
	return diversifiedCtx(context.Background(), g, s.wts, nil, src, dst, k, sim, threshold, maxProbe)
}

// enumSetups covers both ways the enumeration is entered: the plain entry
// points, which fill the weight table per query, and a passed-in table,
// built once and shared, as served generation runs.
func enumSetups(g *roadnet.Graph, w Weight) []enumSetup {
	return []enumSetup{
		{"plain", w, nil},
		{"table", w, WeightTable(g, w)},
	}
}

// requireMatchesReference compares TopK k ∈ {1, 5, 32} and D-TkDI k=5 θ=0.8
// on every setup with the reference enumeration of src→dst.
func requireMatchesReference(t testing.TB, g *roadnet.Graph, setups []enumSetup, src, dst roadnet.VertexID) {
	t.Helper()
	ref := newRefSeq(g, setups[0].w, src, dst)
	if len(ref.first(1)) == 0 {
		for _, s := range setups {
			if _, err := s.topK(g, src, dst, 5); err != ErrNoPath {
				t.Fatalf("%s %d->%d: err %v, reference finds no path", s.name, src, dst, err)
			}
		}
		return
	}
	for _, s := range setups {
		for _, k := range []int{1, 5, 32} {
			got, err := s.topK(g, src, dst, k)
			if err != nil {
				t.Fatalf("%s TopK %d->%d k=%d: %v", s.name, src, dst, k, err)
			}
			requireSameSequence(t, fmt.Sprintf("%s TopK %d->%d k=%d", s.name, src, dst, k), got, ref.first(k))
		}
		got, err := s.diversified(g, src, dst, 5, jaccard, 0.8, 50)
		if err != nil {
			t.Fatalf("%s D-TkDI %d->%d: %v", s.name, src, dst, err)
		}
		requireSameSequence(t, fmt.Sprintf("%s D-TkDI %d->%d", s.name, src, dst), got, ref.diversified(5, jaccard, 0.8, 50))
	}
}

// benchWorld is the repository benchmark's world (benchmark/world.go: 56x56
// DefaultGenConfig, seed 1), built once per test binary.
var benchWorld struct {
	once sync.Once
	g    *roadnet.Graph
	err  error
}

const benchWorldSide = 56

func benchWorldGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	benchWorld.once.Do(func() {
		cfg := roadnet.DefaultGenConfig()
		cfg.Rows, cfg.Cols, cfg.Seed = benchWorldSide, benchWorldSide, 1
		benchWorld.g, benchWorld.err = roadnet.Generate(cfg)
	})
	if benchWorld.err != nil {
		t.Fatal(benchWorld.err)
	}
	return benchWorld.g
}

// crosstownPairs draws n fixed origin-destination cells of the benchmark
// world whose grid distance steps through 20..40 hops, the shape of the
// crosstown_uncached workload (the generator BenchmarkCandidatesByEngine
// uses). The reference costs ~0.5 s a pair at k=32, so short and race runs
// take a sample.
func crosstownPairs(n int) [][2]roadnet.VertexID {
	if testing.Short() || allocpin.Race {
		n = min(n, 6)
	}
	return worldPairs(1, n, 20, 40)
}

// worldPairs draws n origin-destination cells of the benchmark world whose
// grid distance steps through lo..hi hops, as BenchmarkCandidatesByEngine's
// generator does from the same seed: seed 1, 20..40 is crosstown_uncached
// and seed 2, 5..12 is local_batch_k32.
func worldPairs(seed int64, n, lo, hi int) [][2]roadnet.VertexID {
	const side = benchWorldSide
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]roadnet.VertexID, 0, n)
	for len(out) < n {
		hops := lo + len(out)%(hi-lo+1)
		dr := rng.Intn(min(hops, side-1) + 1)
		dc := hops - dr
		r0, c0 := rng.Intn(side), rng.Intn(side)
		r1, c1 := r0+dr*(1-2*rng.Intn(2)), c0+dc*(1-2*rng.Intn(2))
		if dc >= side || r1 < 0 || r1 >= side || c1 < 0 || c1 >= side {
			continue
		}
		out = append(out, [2]roadnet.VertexID{roadnet.VertexID(r0*side + c0), roadnet.VertexID(r1*side + c1)})
	}
	return out
}

// TestYenMatchesReference is the exactness check of the spur loop: on
// jittered worlds, where costs are distinct, every entry point, on a
// per-query fill and on a passed-in table, emits exactly the reference's sequence.
func TestYenMatchesReference(t *testing.T) {
	t.Run("random-worlds", func(t *testing.T) {
		for seed := int64(1); seed <= 5; seed++ {
			g := randomTestGraph(t, seed)
			setups := enumSetups(g, ByLength)
			rng := rand.New(rand.NewSource(seed * 131))
			for trial := 0; trial < 8; trial++ {
				requireMatchesReference(t, g, setups, randVertex(rng, g.NumVertices()), randVertex(rng, g.NumVertices()))
			}
		}
	})
	t.Run("crosstown", func(t *testing.T) {
		g := benchWorldGraph(t)
		setups := enumSetups(g, ByLength)
		// The reference dominates and is independent per pair, so the
		// pairs run as parallel subtests.
		for _, p := range crosstownPairs(50) {
			t.Run(fmt.Sprintf("%d-%d", p[0], p[1]), func(t *testing.T) {
				t.Parallel()
				requireMatchesReference(t, g, setups, p[0], p[1])
			})
		}
	})
}

// TestYenUnitGridTies runs the enumeration where costs tie exactly. Which
// of several equal-cost paths comes first is then a property of the search,
// not of Yen, so the check is the cost sequence (unique for any correct
// top-k), looplessness and distinctness.
func TestYenUnitGridTies(t *testing.T) {
	const side = 6
	b := roadnet.NewBuilder(side*side, 4*side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			b.AddVertex(geo.Point{Lon: 10 + 0.002*float64(c), Lat: 57 + 0.001*float64(r)})
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := roadnet.VertexID(r*side + c)
			if c+1 < side {
				b.AddBidirectional(v, v+1, roadnet.Residential)
			}
			if r+1 < side {
				b.AddBidirectional(v, v+side, roadnet.Residential)
			}
		}
	}
	g := b.Build()
	unit := func(roadnet.Edge) float64 { return 1 }
	for _, pair := range [][2]roadnet.VertexID{{0, side*side - 1}, {2, 27}, {14, 15}} {
		src, dst := pair[0], pair[1]
		want := newRefSeq(g, unit, src, dst).first(32)
		for _, s := range enumSetups(g, unit) {
			got, err := s.topK(g, src, dst, 32)
			if err != nil || len(got) != len(want) {
				t.Fatalf("%s %d->%d: %d paths (err %v), reference has %d", s.name, src, dst, len(got), err, len(want))
			}
			distinct := map[string]bool{}
			for i, p := range got {
				if math.Float64bits(p.Cost) != math.Float64bits(want[i].Cost) {
					t.Fatalf("%s %d->%d: path %d costs %v, reference %v", s.name, src, dst, i, p.Cost, want[i].Cost)
				}
				if err := p.Validate(g); err != nil || p.Source() != src || p.Destination() != dst {
					t.Fatalf("%s %d->%d: path %d %v invalid: %v", s.name, src, dst, i, p.Vertices, err)
				}
				if distinct[pathKey(p)] {
					t.Fatalf("%s %d->%d: path %d %v emitted twice", s.name, src, dst, i, p.Edges)
				}
				distinct[pathKey(p)] = true
			}
		}
	}
}

// optimalPaths counts the cheapest src→dst paths avoiding the banned
// vertices and edges: σ over the distances refSearch settles, taken in
// increasing order, where an edge u→v adds σ(u) to σ(v) when u's distance
// plus the edge's weight is within a relative tol of v's (tol 0: equal to
// it). It returns 0 when dst is unreachable.
func optimalPaths(g *roadnet.Graph, w Weight, src, dst roadnet.VertexID, banV map[roadnet.VertexID]bool, banE map[roadnet.EdgeID]bool, tol float64) float64 {
	settled, _ := refSearch(g, w, []Seed{{src, 0}}, false, dst, banV, banE)
	if _, ok := settled[dst]; !ok {
		return 0
	}
	order := make([]roadnet.VertexID, 0, len(settled))
	for v := range settled {
		order = append(order, v)
	}
	sort.Slice(order, func(i, j int) bool { return settled[order[i]] < settled[order[j]] })
	sigma := map[roadnet.VertexID]float64{src: 1}
	for _, v := range order {
		if v == src {
			continue
		}
		dv := settled[v]
		for _, eid := range g.InEdges(v) {
			e := g.Edge(eid)
			du, ok := settled[e.From]
			if ok && !banE[eid] && du+w(e) <= dv+tol*dv {
				sigma[v] += sigma[e.From]
			}
		}
	}
	return sigma[dst]
}

// TestServedSpursHaveUniqueOptima is the census behind the spur search's
// early stop. A spur search stops at the first vertex whose tree path
// avoids its bans, so where a search has several optimal spurs it may
// return another one than textbook Yen's Dijkstra does, and the candidate
// sets would differ. This counts the optimal paths of every search textbook
// Yen makes on a sample of the served crosstown and local pairs — exactly,
// and within a relative 1e-9 — and requires each reachable one to have a
// single optimum. Should a tie ever appear, the early stop needs a
// canonical tie rule in refYen first. The unit-grid subtest proves the
// counter sees ties.
func TestServedSpursHaveUniqueOptima(t *testing.T) {
	t.Run("served", func(t *testing.T) {
		g := benchWorldGraph(t)
		shapes := []struct {
			name  string
			pairs [][2]roadnet.VertexID
			paths int
		}{
			{"crosstown", crosstownPairs(8), 12},
			{"local", worldPairs(2, 12, 5, 12), 32},
		}
		if testing.Short() || allocpin.Race {
			shapes[1].pairs = shapes[1].pairs[:4]
		}
		for _, s := range shapes {
			var searches, reachable, tied, near int
			for _, p := range s.pairs {
				ref := newRefSeq(g, ByLength, p[0], p[1])
				ref.y.onSearch = func(src roadnet.VertexID, banV map[roadnet.VertexID]bool, banE map[roadnet.EdgeID]bool) {
					searches++
					n := optimalPaths(g, ByLength, src, p[1], banV, banE, 0)
					if n == 0 {
						return
					}
					reachable++
					if n > 1 {
						tied++
					}
					if optimalPaths(g, ByLength, src, p[1], banV, banE, 1e-9) > 1 {
						near++
					}
				}
				ref.first(s.paths)
			}
			t.Logf("%s: %d pairs × %d paths, %d searches, %d reachable: %d with tied optima, %d within 1e-9", s.name, len(s.pairs), s.paths, searches, reachable, tied, near)
			if reachable == 0 || tied != 0 || near != 0 {
				t.Fatalf("%s: %d of %d reachable searches have tied optima, %d within 1e-9; want some searches and no tie", s.name, tied, reachable, near)
			}
		}
	})
	t.Run("unit-grid-ties", func(t *testing.T) {
		g := gridGraph(t, 6, 6)
		unit := func(roadnet.Edge) float64 { return 1 }
		src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
		for _, tol := range []float64{0, 1e-9} {
			if n := optimalPaths(g, unit, src, dst, nil, nil, tol); n < 2 {
				t.Fatalf("tol %g: %v optimal paths corner to corner on a unit grid, want a tie", tol, n)
			}
		}
	})
}

// servedYenEnum starts, on a workspace the test must release, the
// enumeration the served configuration runs for src→dst on the weight
// table wts.
func servedYenEnum(t *testing.T, g *roadnet.Graph, wts []float64, src, dst roadnet.VertexID, maxProbe int) (*yenEnum, *Workspace) {
	t.Helper()
	ws := GetWorkspace(g)
	ws.useWeights(wts)
	y, err := newYenEnum(g, ws, src, dst, maxProbe)
	if err != nil {
		ws.Release()
		t.Fatal(err)
	}
	return y, ws
}

// nextWithinBudget is y.next, failing t if the pending list then holds
// more candidates than the paths y may still emit.
func nextWithinBudget(t *testing.T, y *yenEnum) (Path, bool) {
	t.Helper()
	p, ok := y.next()
	if room := y.maxProbe - len(y.paths); len(y.pending) > room {
		t.Fatalf("after %d paths of a %d budget, %d candidates pending, want at most %d", len(y.paths), y.maxProbe, len(y.pending), room)
	}
	return p, ok
}

// TestYenSpurSearchBudget pins the work the spur loop does, as counts: a
// next call searches exactly from its path's deviation index on, and over
// the crosstown pairs the served configuration (a prebuilt weight table,
// D-TkDI k=5 θ=0.8) runs at most two thirds of the searches of the
// reference, which spurs from every index, for the same probes and the
// same accepted paths. (The first path deviates at 0 and later ones at a
// uniformly spread index, so P probes cost about P/(2(P-1)) of the
// reference: 56% at the nine probes a crosstown pair averages, never half.)
// The pending list never holds more candidates than the paths the budget
// still allows, and the log reports the share of spur searches its bound
// stopped before they found a spur. The heap pops of each served shape —
// the tree sweep plus every spur search — stay under a mean per pair of
// 2,000 on crosstown and 900 on local_k32; the log also reports how many
// spur-search pops a pair fall outside the tree's ball (EnumStats.BlindPops).
func TestYenSpurSearchBudget(t *testing.T) {
	g := benchWorldGraph(t)
	table := WeightTable(g, ByLength)
	pairs := crosstownPairs(20)

	t.Run("per-next", func(t *testing.T) {
		src, dst := pairs[0][0], pairs[0][1]
		y, ws := servedYenEnum(t, g, table, src, dst, 40)
		defer ws.Release()
		for n := 1; n < 40; n++ {
			prev, dev, before := y.paths[n-1], y.devs[n-1], y.searches
			p, ok := nextWithinBudget(t, y)
			if !ok {
				t.Fatalf("path set ran dry after %d paths", n)
			}
			if ran, budget := y.searches-before, len(prev.Vertices)-1-dev; ran != budget {
				t.Fatalf("next %d ran %d searches; path has %d vertices and deviates at %d, want %d", n, ran, len(prev.Vertices), dev, budget)
			}
			// The new path's deviation index is where it leaves an
			// already emitted path it shares a root with.
			d, parented := y.devs[n], false
			for _, q := range y.paths[:n] {
				parented = parented || (len(q.Edges) > d && sameEdges(q.Edges[:d], p.Edges[:d]) && q.Edges[d] != p.Edges[d])
			}
			if !parented {
				t.Fatalf("path %d records deviation index %d but no emitted path shares that root", n, d)
			}
		}
	})

	t.Run("crosstown-total", func(t *testing.T) {
		var ran, refRan int
		for _, p := range pairs {
			got, st, err := enumerate(context.Background(), g, table, nil, p[0], p[1], 5, jaccard, 0.8, 50)
			if err != nil {
				t.Fatal(err)
			}
			// A per-query fill of the same metric does the same work.
			fill, fillSt, err := enumerate(context.Background(), g, nil, ByLength, p[0], p[1], 5, jaccard, 0.8, 50)
			if err != nil || fillSt != st {
				t.Fatalf("%d->%d: per-query fill: stats %+v, err %v; the table's %+v", p[0], p[1], fillSt, err, st)
			}
			requireSameSequence(t, fmt.Sprintf("D-TkDI %d->%d on a per-query fill", p[0], p[1]), fill, got)
			ref := newRefSeq(g, ByLength, p[0], p[1])
			requireSameSequence(t, fmt.Sprintf("D-TkDI %d->%d", p[0], p[1]), got, ref.diversified(5, jaccard, 0.8, 50))
			if st.Probes != len(ref.paths) {
				t.Fatalf("%d->%d: %d probes, reference %d", p[0], p[1], st.Probes, len(ref.paths))
			}
			ran += st.SpurSearches
			refRan += ref.y.searches
		}
		t.Logf("%d pairs: %d spur searches, reference %d", len(pairs), ran, refRan)
		if 3*ran > 2*refRan {
			t.Fatalf("%d spur searches over %d pairs, want at most two thirds of the reference's %d", ran, len(pairs), refRan)
		}
	})

	// Each served shape's pairs, replayed next by next for the probes the
	// served enumeration made: the same searches, the pending list within
	// the budget after every call.
	for _, s := range servedShapes() {
		t.Run(s.name+"-bound", func(t *testing.T) {
			var ran, cut, pops, blind int
			for _, p := range s.pairs {
				got, st, err := enumerate(context.Background(), g, table, nil, p[0], p[1], s.k, s.sim, 0.8, s.maxProbe)
				if err != nil {
					t.Fatal(err)
				}
				y, ws := servedYenEnum(t, g, table, p[0], p[1], s.maxProbe)
				for len(y.paths) < st.Probes {
					if _, ok := nextWithinBudget(t, y); !ok {
						t.Fatalf("%d->%d: replay ran dry after %d of %d probes", p[0], p[1], len(y.paths), st.Probes)
					}
				}
				ws.Release()
				if y.searches != st.SpurSearches {
					t.Fatalf("%d->%d: replay ran %d spur searches, the enumeration %d", p[0], p[1], y.searches, st.SpurSearches)
				}
				if s.sim == nil {
					requireSameSequence(t, fmt.Sprintf("%d->%d replay", p[0], p[1]), y.paths, got)
				}
				ran += y.searches
				cut += y.cut
				pops += st.Pops
				blind += st.BlindPops
			}
			t.Logf("%s, %d pairs: the bound stopped %d of %d spur searches early (%.1f%%); %.0f heap pops a pair, %.0f of them spur-search pops outside the tree's ball", s.name, len(s.pairs), cut, ran, 100*float64(cut)/float64(ran), float64(pops)/float64(len(s.pairs)), float64(blind)/float64(len(s.pairs)))
			if pops > s.maxPops*len(s.pairs) {
				t.Fatalf("%s: %d heap pops over %d pairs, want at most %d a pair", s.name, pops, len(s.pairs), s.maxPops)
			}
		})
	}
}

// pendingEdges returns the edges of each of y's pending candidates.
func pendingEdges(y *yenEnum) [][]roadnet.EdgeID {
	var out [][]roadnet.EdgeID
	for _, c := range y.pending {
		root := y.paths[c.parent].Edges[:c.dev]
		out = append(out, append(append([]roadnet.EdgeID(nil), root...), y.ws.spur[c.lo:c.hi]...))
	}
	return out
}

// inRegion reports whether q lies in the region of the spur search at
// index i of the last of paths: it starts with that path's first i edges
// and its edge at i is no emitted path's edge at i sharing them.
func inRegion(paths []Path, i int, q []roadnet.EdgeID) bool {
	root := paths[len(paths)-1].Edges[:i]
	if len(q) <= i || !sameEdges(q[:i], root) {
		return false
	}
	for _, p := range paths {
		if len(p.Edges) > i && sameEdges(p.Edges[:i], root) && p.Edges[i] == q[i] {
			return false
		}
	}
	return true
}

// requireRegionsNeverRepeat steps the enumeration of src→dst under w, with
// budget maxProbe, next by next. Before each call no emitted or pending
// path may lie in a region the call searches; after it the emitted and
// pending paths must all differ; and the emitted costs must be the
// reference's, bit for bit.
func requireRegionsNeverRepeat(t *testing.T, g *roadnet.Graph, w Weight, src, dst roadnet.VertexID, maxProbe int) {
	t.Helper()
	ws := GetWorkspace(g)
	defer ws.Release()
	ws.fillWeights(g, w)
	y, err := newYenEnum(g, ws, src, dst, maxProbe)
	if err != nil {
		return
	}
	what := fmt.Sprintf("%d->%d max_probe=%d", src, dst, maxProbe)
	for len(y.paths) < maxProbe {
		known := pendingEdges(y)
		for _, p := range y.paths {
			known = append(known, p.Edges)
		}
		last := len(y.paths) - 1
		for i := y.devs[last]; i < y.paths[last].Len(); i++ {
			for _, q := range known {
				if inRegion(y.paths, i, q) {
					t.Fatalf("%s: after %d paths, %v lies in the region of the spur search at index %d", what, len(y.paths), q, i)
				}
			}
		}
		if _, ok := y.next(); !ok {
			break
		}
		distinct := map[string]bool{}
		for _, p := range y.paths {
			distinct[pathKey(p)] = true
		}
		for _, q := range pendingEdges(y) {
			distinct[pathKey(Path{Edges: q})] = true
		}
		if len(distinct) != len(y.paths)+len(y.pending) {
			t.Fatalf("%s: after %d paths, an emitted or pending path repeats", what, len(y.paths))
		}
	}
	want := newRefSeq(g, w, src, dst).first(len(y.paths) + 1)
	if len(want) < len(y.paths) || len(y.paths) < maxProbe && len(want) != len(y.paths) {
		t.Fatalf("%s: %d paths, reference %d", what, len(y.paths), len(want))
	}
	for j, p := range y.paths {
		if math.Float64bits(p.Cost) != math.Float64bits(want[j].Cost) {
			t.Fatalf("%s: path %d costs %v, reference %v", what, j, p.Cost, want[j].Cost)
		}
	}
}

// TestYenRegionsNeverRepeat pins the argument that lets yenEnum keep no
// record of seen paths: no spur search can return a path already emitted,
// pending or dropped, since Lawler's regions are nested or disjoint. It
// runs on graphs with integer weights (many exact ties), parallel arcs and
// budgets small enough that the cap drops candidates, on jittered random
// graphs, and on served crosstown pairs.
func TestYenRegionsNeverRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 1+3*(8+rng.Intn(40)))
		rng.Read(data)
		data[0] = byte(rng.Intn(10))
		g := tieGraph(data)
		n := g.NumVertices()
		requireRegionsNeverRepeat(t, g, ByLength, randVertex(rng, n), randVertex(rng, n), 2+rng.Intn(30))
	}
	for trial := 0; trial < 100; trial++ {
		g := randomFuzzGraph(rng)
		n := g.NumVertices()
		requireRegionsNeverRepeat(t, g, ByLength, randVertex(rng, n), randVertex(rng, n), 2+rng.Intn(30))
	}
	g := benchWorldGraph(t)
	for _, p := range crosstownPairs(4) {
		requireRegionsNeverRepeat(t, g, ByLength, p[0], p[1], 12)
	}
}

// TestYenAllocBudget pins the allocations of the served enumerations, 50
// pairs of each shape on a prebuilt weight table, so that per-candidate
// allocations — a Path built for every admitted spur, a key per seen path —
// cannot creep back: a candidate is materialized only when it is emitted.
func TestYenAllocBudget(t *testing.T) {
	g := benchWorldGraph(t)
	table := WeightTable(g, ByLength)
	for _, s := range servedShapes() {
		t.Run(s.name, func(t *testing.T) {
			want := map[string]allocpin.Count{
				"crosstown": {Allocs: 4762, Bytes: 840320},
				"local_k32": {Allocs: 4500, Bytes: 583872},
			}[s.name]
			allocpin.Pin(t, want, func() {
				for _, p := range s.pairs[:50] {
					if _, _, err := enumerate(context.Background(), g, table, nil, p[0], p[1], s.k, s.sim, 0.8, s.maxProbe); err != nil {
						t.Fatal(err)
					}
				}
			})
		})
	}
}

// servedShape is one served candidate configuration over its pairs of the
// benchmark world, with the mean heap pops a pair TestYenSpurSearchBudget
// allows it.
type servedShape struct {
	name     string
	pairs    [][2]roadnet.VertexID
	k        int
	sim      Similarity
	maxProbe int
	maxPops  int
}

// servedShapes are crosstown (D-TkDI k=5 θ=0.8) and local_k32 (TkDI
// k=32), each over 200 pairs: the mean of a smaller sample swings with a
// few long enumerations.
func servedShapes() []servedShape {
	return []servedShape{
		{"crosstown", worldPairs(1, 200, 20, 40), 5, jaccard, 50, 2000},
		{"local_k32", worldPairs(2, 200, 5, 12), 32, nil, 32, 900},
	}
}

// BenchmarkYenServed runs each served shape's enumeration on a prebuilt
// weight table of the benchmark world, one pair per op, and reports the heap pops and
// spur searches per op: counts, so they compare across machines. They are
// taken over one whole untimed pass of the pairs, since the timed loop
// cycles them and a partial pass would weight some pairs twice.
func BenchmarkYenServed(b *testing.B) {
	g := benchWorldGraph(b)
	table := WeightTable(g, ByLength)
	for _, s := range servedShapes() {
		b.Run(s.name, func(b *testing.B) {
			run := func(p [2]roadnet.VertexID) EnumStats {
				_, st, err := enumerate(context.Background(), g, table, nil, p[0], p[1], s.k, s.sim, 0.8, s.maxProbe)
				if err != nil {
					b.Fatal(err)
				}
				return st
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(s.pairs[i%len(s.pairs)])
			}
			b.StopTimer()
			var pops, searches int
			for _, p := range s.pairs {
				st := run(p)
				pops += st.Pops
				searches += st.SpurSearches
			}
			b.ReportMetric(float64(pops)/float64(len(s.pairs)), "pops/op")
			b.ReportMetric(float64(searches)/float64(len(s.pairs)), "spur_searches/op")
		})
	}
}

// BenchmarkTreeSweep times the reverse shortest-path tree sweep alone that
// each served shape's enumeration starts with, one pair per op, on a
// prebuilt weight table, and reports its heap pops per op over one whole
// untimed pass of the pairs.
func BenchmarkTreeSweep(b *testing.B) {
	g := benchWorldGraph(b)
	ws := GetWorkspace(g)
	defer ws.Release()
	ws.useWeights(WeightTable(g, ByLength))
	sweep := func(p [2]roadnet.VertexID) int {
		before := ws.heap.pops
		if !ws.buildTree(g, p[0], p[1]) {
			b.Fatalf("%d->%d: the tree sweep did not reach src", p[0], p[1])
		}
		return ws.heap.pops - before
	}
	for _, s := range servedShapes() {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sweep(s.pairs[i%len(s.pairs)])
			}
			b.StopTimer()
			pops := 0
			for _, p := range s.pairs {
				pops += sweep(p)
			}
			b.ReportMetric(float64(pops)/float64(len(s.pairs)), "pops/op")
		})
	}
}

// TestEngineWeightTableNotClobbered guards the sharing of prebuilt weight
// tables: a pooled workspace that last read a shared table is later filled
// under another weight, and must write its own buffer, never the shared
// table.
func TestEngineWeightTableNotClobbered(t *testing.T) {
	g := gridGraph(t, 9, 9)
	shared := WeightTable(g, ByLength)
	src, dst := roadnet.VertexID(0), roadnet.VertexID(g.NumVertices()-1)
	table := append([]float64(nil), shared...)
	requireTableIntact := func(when string) {
		t.Helper()
		for i, w := range shared {
			if math.Float64bits(w) != math.Float64bits(table[i]) {
				t.Fatalf("%s: shared weight of edge %d is %v, was %v", when, i, w, table[i])
			}
		}
	}

	ws := GetWorkspace(g)
	ws.useWeights(shared)
	ws.fillWeights(g, ByTime)
	if &ws.wts[0] == &shared[0] {
		t.Fatal("fillWeights left the workspace aliasing the shared table")
	}
	ws.Release()
	requireTableIntact("fillWeights after useWeights")

	want, err := topKCtx(context.Background(), g, shared, nil, src, dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	wantTime, err := TopK(g, src, dst, 8, ByTime) // the pooled workspace, another weight
	if err != nil {
		t.Fatal(err)
	}
	got, err := topKCtx(context.Background(), g, shared, nil, src, dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSequence(t, "shared-table query after a plain ByTime query", got, want)
	requireTableIntact("shared table, plain ByTime, shared table")

	// The same interleaving from several goroutines, for -race.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if (w+i)%2 == 0 {
					got, _ := topKCtx(context.Background(), g, shared, nil, src, dst, 8)
					if d := diffSequence(got, want); d != "" {
						t.Errorf("concurrent shared-table query: %s", d)
					}
				} else {
					got, _ := TopK(g, src, dst, 8, ByTime)
					if d := diffSequence(got, wantTime); d != "" {
						t.Errorf("concurrent plain ByTime query: %s", d)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	requireTableIntact("concurrent shared-table and plain queries")
}

// fuzzGraph decodes bytes into a small directed graph with jittered edge
// lengths and a query on it: data[0..3] pick the vertex count (2..9), src,
// dst and k (1..8); every following triple is an edge (from, to, jitter).
// Vertices sit on a 3-wide lattice and an edge is at least as long as the
// straight line between its ends, as on a road network; the per-edge term
// keeps parallel edges from tying.
func fuzzGraph(data []byte) (g *roadnet.Graph, src, dst roadnet.VertexID, k int) {
	for len(data) < 4 {
		data = append(data, 0)
	}
	n := 2 + int(data[0])%8
	b := roadnet.NewBuilder(n, len(data)/3)
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{Lon: 10 + 0.002*float64(i%3), Lat: 57 + 0.001*float64(i/3)})
	}
	for i, e := 0, data[4:]; len(e) >= 3 && i < 48; i, e = i+1, e[3:] {
		from, to := roadnet.VertexID(int(e[0])%n), roadnet.VertexID(int(e[1])%n)
		if from == to {
			continue
		}
		line := geo.Distance(b.Vertex(from).Point, b.Vertex(to).Point)
		b.AddEdgeWithLength(from, to, roadnet.Residential, line*(1+float64(e[2])/128)+0.37*float64(i+1))
	}
	return b.Build(), roadnet.VertexID(int(data[1]) % n), roadnet.VertexID(int(data[2]) % n), 1 + int(data[3])%8
}

// distinctCosts reports whether no two of paths cost the same.
func distinctCosts(paths []Path) bool {
	distinct := map[uint64]bool{}
	for _, p := range paths {
		distinct[math.Float64bits(p.Cost)] = true
	}
	return len(distinct) == len(paths)
}

// FuzzYenMatchesReference compares TopK and D-TkDI on every setup with the
// reference on arbitrary small directed graphs. Distinct reference costs
// make the sequence unique and it is compared path for path; when the
// fuzzer finds an exact tie only TopK's cost sequence is, since which of
// the tied paths D-TkDI examines first decides what it accepts. D-TkDI
// runs under a drawn threshold and probe budget — below k (which means
// 10·k), k, k+1 and beyond — and its EnumStats must match the reference's
// in Probes, MaxCost bits and Exhausted, the fields the sharded router's
// corridor certification reads.
func FuzzYenMatchesReference(f *testing.F) {
	f.Add([]byte{2, 0, 4, 3, 0, 1, 9, 1, 2, 40, 2, 3, 7, 3, 4, 90}, uint8(4), uint8(200))                                                                           // a line; budget k
	f.Add([]byte{2, 0, 3, 4, 0, 1, 10, 0, 2, 30, 1, 3, 50, 2, 3, 20, 1, 2, 5}, uint8(6), uint8(100))                                                                // a diamond; budget k+1
	f.Add([]byte{2, 0, 3, 2, 0, 1, 10, 2, 3, 10}, uint8(0), uint8(0))                                                                                               // src and dst in different components
	f.Add([]byte{1, 0, 2, 5, 0, 1, 10, 0, 1, 60, 0, 1, 200, 1, 2, 3, 1, 2, 77, 2, 0, 8}, uint8(2), uint8(128))                                                      // parallel edges; budget below k
	f.Add([]byte{7, 0, 8, 7, 0, 1, 1, 1, 2, 2, 0, 3, 3, 3, 4, 4, 1, 4, 5, 4, 5, 6, 2, 5, 7, 4, 7, 8, 5, 8, 9, 7, 8, 10, 3, 6, 11, 6, 7, 12}, uint8(20), uint8(204)) // a 3x3 grid; budget past k+1
	// Every neighbour of the spur vertex 0 reaches dst 2 back through 0 and
	// the banned edge 0→1, so the first spur search pops 0, 3 and 4, all
	// dirty, before the clean 5; budget past k+1.
	f.Add([]byte{4, 0, 2, 3, 0, 1, 0, 1, 2, 0, 0, 3, 0, 3, 0, 0, 0, 4, 0, 4, 0, 0, 3, 5, 0, 4, 5, 0, 5, 2, 255}, uint8(7), uint8(230))
	// The second and third paths are spurs of exactly equal cost, so only
	// TopK's cost sequence is compared; budget k+1.
	f.Add([]byte{6, 3, 6, 7, 3, 5, 0, 6, 5, 0, 3, 4, 0, 4, 1, 0, 1, 6, 128, 6, 1, 0, 5, 2, 0, 3, 4, 0, 4, 1, 0, 1, 1, 0}, uint8(9), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, probe, theta uint8) {
		g, src, dst, k := fuzzGraph(data)
		if g.NumEdges() == 0 {
			return
		}
		ref := newRefSeq(g, ByLength, src, dst)
		want := ref.first(k + 1)
		exact := distinctCosts(want)
		want = want[:min(k, len(want))]

		maxProbe, threshold := int(probe)%(3*k+2), float64(theta)/255
		budget := maxProbe
		if budget < k {
			budget = 10 * k
		}
		wantD, wantSt := ref.diversifiedStats(k, jaccard, threshold, budget)
		exactD := distinctCosts(ref.first(wantSt.Probes + 1))

		for _, s := range enumSetups(g, ByLength) {
			got, err := s.topK(g, src, dst, k)
			if len(want) == 0 {
				if err != ErrNoPath {
					t.Fatalf("%s %d->%d: err %v, reference finds no path", s.name, src, dst, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s %d->%d k=%d: %v", s.name, src, dst, k, err)
			}
			if exact {
				requireSameSequence(t, fmt.Sprintf("%s %d->%d k=%d", s.name, src, dst, k), got, want)
			} else {
				if len(got) != len(want) {
					t.Fatalf("%s %d->%d k=%d: %d paths, reference has %d", s.name, src, dst, k, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i].Cost) != math.Float64bits(want[i].Cost) {
						t.Fatalf("%s %d->%d k=%d: path %d costs %v, reference %v", s.name, src, dst, k, i, got[i].Cost, want[i].Cost)
					}
				}
			}
			if !exactD {
				continue
			}
			what := fmt.Sprintf("%s D-TkDI %d->%d k=%d θ=%g max_probe=%d", s.name, src, dst, k, threshold, maxProbe)
			gotD, st, err := enumerate(context.Background(), g, s.wts, s.w, src, dst, k, jaccard, threshold, maxProbe)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			requireSameSequence(t, what, gotD, wantD)
			if st.Probes != wantSt.Probes || math.Float64bits(st.MaxCost) != math.Float64bits(wantSt.MaxCost) || st.Exhausted != wantSt.Exhausted {
				t.Fatalf("%s: probes %d, max cost %v, exhausted %v; reference %d, %v, %v", what, st.Probes, st.MaxCost, st.Exhausted, wantSt.Probes, wantSt.MaxCost, wantSt.Exhausted)
			}
		}
	})
}

// pathKey identifies a path by its edge sequence.
func pathKey(p Path) string {
	b := make([]byte, 0, 4*len(p.Edges))
	for _, e := range p.Edges {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(b)
}
