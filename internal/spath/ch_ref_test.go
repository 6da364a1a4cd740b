package spath

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// buildCHRef is the contraction loop BuildCH replaced, kept verbatim as the
// oracle for it: a map-backed witness search per (in-arc, out-arc) pair,
// run once to price a vertex and again to contract it, over working lists
// that keep arcs to contracted vertices and filter them on every read.
func buildCHRef(g *roadnet.Graph, w Weight) *ContractionHierarchy {
	n := g.NumVertices()

	// Working adjacency (mutable during contraction): out and in arc lists
	// per vertex over remaining (uncontracted) vertices.
	type dynArc struct {
		other  int32
		weight float64
		mid    int32
		edge   roadnet.EdgeID
	}
	out := make([][]dynArc, n)
	in := make([][]dynArc, n)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		wt := w(e)
		out[e.From] = append(out[e.From], dynArc{other: int32(e.To), weight: wt, mid: -1, edge: e.ID})
		in[e.To] = append(in[e.To], dynArc{other: int32(e.From), weight: wt, mid: -1, edge: e.ID})
	}
	contracted := make([]bool, n)

	// witnessSearch checks whether a path from s to t avoiding v with cost
	// <= bound exists, using a bounded Dijkstra over remaining vertices.
	witnessSearch := func(s, t, v int32, bound float64) bool {
		const maxSettle = 60
		dist := map[int32]float64{s: 0}
		h := &vertexHeapCH{}
		h.push(chItem{v: s})
		settled := 0
		for h.len() > 0 && settled < maxSettle {
			it := h.pop()
			if it.dist > dist[it.v] {
				continue
			}
			if it.v == t {
				return it.dist <= bound
			}
			if it.dist > bound {
				return false
			}
			settled++
			for _, a := range out[it.v] {
				if contracted[a.other] || a.other == v {
					continue
				}
				nd := it.dist + a.weight
				if cur, ok := dist[a.other]; !ok || nd < cur {
					dist[a.other] = nd
					h.push(chItem{v: a.other, dist: nd})
				}
			}
		}
		d, ok := dist[t]
		return ok && d <= bound
	}

	// simulate counts the shortcuts contraction of v would add.
	simulate := func(v int32, insert bool) int {
		added := 0
		for _, ia := range in[v] {
			if contracted[ia.other] {
				continue
			}
			for _, oa := range out[v] {
				if contracted[oa.other] || ia.other == oa.other {
					continue
				}
				through := ia.weight + oa.weight
				if witnessSearch(ia.other, oa.other, v, through) {
					continue
				}
				added++
				if insert {
					out[ia.other] = append(out[ia.other], dynArc{other: oa.other, weight: through, mid: v})
					in[oa.other] = append(in[oa.other], dynArc{other: ia.other, weight: through, mid: v})
				}
			}
		}
		return added
	}

	degree := func(v int32) int {
		d := 0
		for _, a := range out[v] {
			if !contracted[a.other] {
				d++
			}
		}
		for _, a := range in[v] {
			if !contracted[a.other] {
				d++
			}
		}
		return d
	}
	priority := func(v int32) int { return simulate(v, false)*2 - degree(v) }

	// Lazy priority queue.
	type pqCH struct {
		v    int32
		prio int
	}
	pq := make([]pqCH, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, pqCH{v: int32(v), prio: priority(int32(v))})
	}
	sort.Slice(pq, func(a, b int) bool { return pq[a].prio < pq[b].prio })

	order := make([]int32, n)
	var allArcs []chArc
	rank := int32(0)
	// Collect original edges as arcs once; shortcuts appended during
	// contraction.
	for v := 0; v < n; v++ {
		for _, a := range out[v] {
			allArcs = append(allArcs, chArc{from: int32(v), to: a.other, weight: a.weight, mid: -1, edge: a.edge})
		}
	}

	heapify := func() {
		sort.Slice(pq, func(a, b int) bool { return pq[a].prio < pq[b].prio })
	}
	for len(pq) > 0 {
		top := pq[0]
		if contracted[top.v] {
			pq = pq[1:]
			continue
		}
		// Lazy update: recompute priority; if it's no longer minimal,
		// re-sort (amortized acceptable at our network sizes).
		np := priority(top.v)
		if len(pq) > 1 && np > pq[1].prio {
			pq[0].prio = np
			heapify()
			continue
		}
		pq = pq[1:]
		v := top.v
		// Insert shortcuts for v, recording them as arcs.
		for _, ia := range in[v] {
			if contracted[ia.other] {
				continue
			}
			for _, oa := range out[v] {
				if contracted[oa.other] || ia.other == oa.other {
					continue
				}
				through := ia.weight + oa.weight
				if witnessSearch(ia.other, oa.other, v, through) {
					continue
				}
				out[ia.other] = append(out[ia.other], dynArc{other: oa.other, weight: through, mid: v})
				in[oa.other] = append(in[oa.other], dynArc{other: ia.other, weight: through, mid: v})
				allArcs = append(allArcs, chArc{from: ia.other, to: oa.other, weight: through, mid: v})
			}
		}
		contracted[v] = true
		order[v] = rank
		rank++
	}

	return newCH(g, order, allArcs)
}

// requireSameCH fails unless BuildCH and the reference builder lay out the
// same hierarchy for g under w, array for array.
func requireSameCH(t *testing.T, name string, g *roadnet.Graph, w Weight) {
	t.Helper()
	got, want := BuildCH(g, w).RawData(), buildCHRef(g, w).RawData()
	if reflect.DeepEqual(got, want) {
		return
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Fatalf("%s: %s differs from the reference's (%d arcs against %d)",
				name, gv.Type().Field(i).Name, len(got.ArcFrom), len(want.ArcFrom))
		}
	}
}

// chTestWeights are the metrics the oracle builds under: the two real ones,
// plus all-ones and lengths quantized to 0.1 per 100 m, where nearly every
// witness search ties and the 60-settle cap decides which vertices it sees.
var chTestWeights = []struct {
	name string
	w    Weight
}{
	{"length", ByLength},
	{"time", ByTime},
	{"ones", func(roadnet.Edge) float64 { return 1 }},
	{"quantized", func(e roadnet.Edge) float64 { return 0.1 * math.Floor(e.Length/100) }},
}

// microTestGraph is the 500-vertex grid BenchmarkCHBuild contracts.
func microTestGraph(t testing.TB) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 20, Cols: 25, SpacingM: 250, JitterFrac: 0.25,
		RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
		Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBuildCHMatchesReference holds BuildCH to the per-pair builder it
// replaced: the same contraction order and the same arcs in the same order,
// so every served hierarchy and artifact stays byte-identical. The micro
// graph is the smallest one here on which the 60-settle cap binds.
func TestBuildCHMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		g := randomTestGraph(t, seed)
		for _, wt := range chTestWeights {
			requireSameCH(t, fmt.Sprintf("seed %d %s", seed, wt.name), g, wt.w)
		}
	}
	micro := microTestGraph(t)
	for _, wt := range chTestWeights {
		requireSameCH(t, "micro graph "+wt.name, micro, wt.w)
	}
	if testing.Short() {
		t.Skip("the 56x56 world takes seconds under the reference builder")
	}
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = 56, 56, 1
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameCH(t, "56x56 world length", g, ByLength)
}

// FuzzBuildCH compares BuildCH with the reference builder on arbitrary
// small directed graphs whose weights, all in {1, 2, 3}, tie everywhere.
func FuzzBuildCH(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 1, 2, 1, 2, 3, 2, 3, 0, 0})                                                                         // a one-way cycle
	f.Add([]byte{2, 0, 1, 0, 1, 0, 0, 1, 2, 1, 2, 1, 2, 1, 1, 0, 2, 2})                                                          // parallel and two-way arcs
	f.Add([]byte{7, 0, 1, 0, 1, 2, 0, 0, 3, 0, 3, 4, 0, 1, 4, 0, 4, 5, 0, 2, 5, 0, 5, 8, 0, 3, 6, 0, 6, 7, 0, 4, 7, 0, 7, 8, 0}) // a 3x3 lattice
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameCH(t, "fuzz", tieGraph(data), ByLength)
	})
}

// tieGraph decodes bytes into a directed graph: data[0] picks the vertex
// count (2..48), each of up to 128 following triples is an arc (from, to,
// weight 1..3 carried as its length). Self-loops are dropped; parallel and
// one-way arcs stay. The arc cap keeps dense inputs from contracting into
// thousands of parallel shortcuts.
func tieGraph(data []byte) *roadnet.Graph {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 2 + int(data[0])%47
	b := roadnet.NewBuilder(n, len(data)/3)
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{Lon: 10 + 0.002*float64(i%7), Lat: 57 + 0.001*float64(i/7)})
	}
	for i, e := 0, data[1:]; len(e) >= 3 && i < 128; i, e = i+1, e[3:] {
		from, to := roadnet.VertexID(int(e[0])%n), roadnet.VertexID(int(e[1])%n)
		if from != to {
			b.AddEdgeWithLength(from, to, roadnet.Residential, float64(1+e[2]%3))
		}
	}
	return b.Build()
}
