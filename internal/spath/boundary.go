package spath

import (
	"pathrank/internal/roadnet"
)

// This file holds the boundary-set search primitives of the sharded
// serving tier. A shard worker answers two kinds of sub-queries for the
// router: boundary distance vectors (src → every boundary vertex, or
// every boundary vertex → dst, under a cost bound) and corridor
// extraction (which owned vertices lie on some src→dst path of cost at
// most C, given exact entry distances at the shard's boundary). Each is
// one Workspace.sweep — reverse for the "→ dst" halves, seeded from
// pre-weighted Seeds instead of a single zero-cost source for the
// corridor — so a shard's distances come from the same relaxation rule,
// bit for bit, as the single-server searches they are stitched against.

// Seed is one starting point of a seeded multi-source search: the search
// frontier begins at V with accumulated cost Dist, as if V had been
// reached from an external origin at that cost. Duplicate vertices are
// allowed; the cheapest seed wins.
type Seed struct {
	V    roadnet.VertexID
	Dist float64
}

// BoundedDistancesRev is the reverse counterpart of BoundedDistances: it
// computes exact minimum costs from every source to dst under w, writing
// out[j] = cost(sources[j] → dst) when that cost is at most bound and
// +Inf otherwise. The search is a single backward sweep from dst over
// the in-adjacency, so its cost is proportional to the bounded ball
// around dst rather than the number of sources.
func (ws *Workspace) BoundedDistancesRev(g *roadnet.Graph, dst roadnet.VertexID, sources []roadnet.VertexID, bound float64, w Weight, out []float64) {
	ws.bounded(g, dst, true, sources, bound, w, out)
}

// SeededDistances runs a multi-source forward search whose frontier
// starts from the given seeds, writing out[v] = min over seeds of
// seed.Dist + cost(seed.V → v) for every vertex reached at cost at most
// bound, and +Inf for the rest. out must have length g.NumVertices().
// It is the corridor-extraction primitive: with seeds carrying exact
// full-graph distances dist(s, b) at a shard's boundary, out[v] is the
// exact full-graph dist(s, v) for every owned v inside the bound.
func (ws *Workspace) SeededDistances(g *roadnet.Graph, seeds []Seed, bound float64, w Weight, out []float64) {
	ws.seeded(g, seeds, false, bound, w, out)
}

// SeededDistancesRev is the backward counterpart of SeededDistances: it
// writes out[v] = min over seeds of cost(v → seed.V) + seed.Dist for
// every vertex within bound, +Inf otherwise. With seeds carrying exact
// distances dist(b, t) at a shard's boundary, out[v] is the exact
// full-graph dist(v, t) for every owned v inside the bound.
func (ws *Workspace) SeededDistancesRev(g *roadnet.Graph, seeds []Seed, bound float64, w Weight, out []float64) {
	ws.seeded(g, seeds, true, bound, w, out)
}

func (ws *Workspace) seeded(g *roadnet.Graph, seeds []Seed, rev bool, bound float64, w Weight, out []float64) {
	ws.sweep(g, seeds, rev, w, -1, nil, bound)
	for v := range out {
		out[v] = ws.settled(roadnet.VertexID(v), bound)
	}
}
