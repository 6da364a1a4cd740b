package spath

import (
	"math"
	"slices"

	"pathrank/internal/roadnet"
)

// This file holds the boundary-set search primitives of the sharded
// serving tier. The bundle builder computes boundary distance tables with
// them (each shard's owned vertices to and from its boundary on the
// shard's subgraph, then boundary to boundary on the overlay of cut edges
// and those in-shard distances), and a shard worker answers the router's
// corridor extraction (which owned vertices lie on some src→dst path of
// cost at most C, given exact entry distances at the shard's boundary).
// All run Workspace.sweep over a weight table —
// reverse for the "→ dst" halves, seeded from pre-weighted Seeds for the
// corridor — so every distance comes from the same relaxation rule as the
// single-server searches it is stitched against.

// Seed is one starting point of a seeded multi-source search: the search
// frontier begins at V with accumulated cost Dist, as if V had been
// reached from an external origin at that cost. Duplicate vertices are
// allowed; the cheapest seed wins.
type Seed struct {
	V    roadnet.VertexID
	Dist float64
}

// BoundaryDistances writes out[j] = the exact cost from v to targets[j]
// (or, when rev, from targets[j] to v) under the weight table wts
// (WeightTable(g, w)), and +Inf where there is no path. It is one sweep,
// stopped once every target is settled: one row of the partition's
// boundary-to-boundary tables, or one column of a shard's endpoint tables.
func (ws *Workspace) BoundaryDistances(g *roadnet.Graph, v roadnet.VertexID, rev bool, targets []roadnet.VertexID, wts []float64, out []float64) {
	ws.useWeights(wts)
	ws.bounded(g, v, rev, targets, math.Inf(1), nil, out)
}

// SeededDistances runs a multi-source search whose frontier starts from
// the given seeds, writing out[v] = min over seeds of seed.Dist +
// cost(seed.V → v) (when rev, cost(v → seed.V) + seed.Dist) for every
// vertex reached at cost at most bound, and +Inf for the rest. out must
// have length g.NumVertices().
func (ws *Workspace) SeededDistances(g *roadnet.Graph, seeds []Seed, rev bool, bound float64, w Weight, out []float64) {
	ws.sweep(g, seeds, rev, w, -1, nil, bound, nil)
	for v := range out {
		out[v] = ws.settled(roadnet.VertexID(v), bound)
	}
}

// corridorSlack is the relative margin of Corridor's two prunes: a swept
// distance is a chain of at most |V| rounded additions, within |V|·2⁻⁵³ of
// the real sum, relative, and 1e-9 is far above that at any served size.
const corridorSlack = 1e-9

// Corridor returns, in ascending ID order, every vertex v with
// fwd(v)+rev(v) <= bound and every edge with both endpoints among them.
// fwd(v) is the min over seeds of seed.Dist + cost(seed.V → v), rev(v) the
// min over rseeds of cost(v → seed.V) + seed.Dist, both under the weight
// table wts and +Inf past bound. The answer is the one two full seeded
// sweeps and scans of the vertex and edge tables give, but the work is the
// corridor's ball, by the bound test of bidirectional search (Pohl, 1971):
//
//   - The forward sweep stops past bound − r0, r0 the cheapest reverse
//     seed, since every rev(v) is at least r0.
//   - The reverse sweep settles, but does not expand, a vertex v whose
//     fwd(v)+rev(v) exceeds bound. A vertex u whose route to the reverse
//     seeds runs through v has fwd(v) <= fwd(u) + cost(u→…→v), so
//     fwd(u)+rev(u) >= fwd(v)+rev(v) > bound: u is outside too. So every
//     corridor vertex gets the rev bits a full sweep gives it, and a vertex
//     outside can only get a larger rev.
//   - The answer is assembled from the vertices the reverse sweep settled.
//
// Both prunes carry the slack corridorSlack·bound, which absorbs the
// rounding the argument ignores; membership is the exact fwd+rev <= bound
// test. The slices are the workspace's, valid until its next search.
func (ws *Workspace) Corridor(g *roadnet.Graph, seeds, rseeds []Seed, bound float64, wts []float64) ([]roadnet.VertexID, []roadnet.EdgeID) {
	r0 := math.Inf(1)
	for _, s := range rseeds {
		r0 = min(r0, s.Dist)
	}
	if math.IsInf(r0, 1) {
		return nil, nil
	}
	ws.useWeights(wts)
	slack := bound * corridorSlack
	// Not capped at bound: with r0 = 0, a vertex on a corridor vertex's
	// route to the reverse seeds can still have fwd a few ulps past bound.
	fb := bound - r0 + slack
	ws.sweep(g, seeds, false, nil, -1, nil, fb, nil)
	// Keep the forward labels aside (as buildTree keeps its tree) while
	// the reverse sweep runs on the search labels.
	ws.labels, ws.tree = ws.tree, ws.labels
	fwd, rev := ws.tree, &ws.labels
	sum := func(v roadnet.VertexID, r float64) float64 {
		if l := fwd.lab[v]; l.reach == fwd.gen && l.dist <= fb {
			return l.dist + r
		}
		return math.Inf(1)
	}
	vs := ws.corrV[:0]
	ws.sweep(g, rseeds, true, nil, -1, nil, bound, func(v roadnet.VertexID, r float64) bool {
		s := sum(v, r)
		if s <= bound {
			vs = append(vs, v)
		}
		return s <= bound+slack
	})
	slices.Sort(vs)
	// v is in the corridor iff the reverse sweep settled it within bound
	// (every current label within bound was popped) and passed the test.
	in := func(v roadnet.VertexID) bool {
		l := rev.lab[v]
		return l.reach == rev.gen && l.dist <= bound && sum(v, l.dist) <= bound
	}
	es := ws.corrE[:0]
	for _, u := range vs {
		heads := g.OutNeighbors(u)
		for i, e := range g.OutEdges(u) {
			if in(heads[i]) {
				es = append(es, e)
			}
		}
	}
	slices.Sort(es)
	ws.corrV, ws.corrE = vs, es
	return vs, es
}
