package spath

import (
	"math"

	"pathrank/internal/roadnet"
)

// This file holds the boundary-set search primitives of the sharded
// serving tier. A shard worker answers two kinds of sub-queries for the
// router: boundary distance vectors (src → every boundary vertex, or
// every boundary vertex → dst, under a cost bound) and corridor
// extraction (which owned vertices lie on some src→dst path of cost at
// most C, given exact entry distances at the shard's boundary). Both
// reduce to bounded Dijkstra variants over the pooled Workspace: a
// reverse counterpart of BoundedDistances, and multi-source searches
// whose frontier starts from pre-weighted Seeds instead of a single
// zero-cost source.

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
// +Inf otherwise. The search is a single backward Dijkstra from dst over
// the in-adjacency, so its cost is proportional to the bounded ball
// around dst rather than the number of sources.
func (ws *Workspace) BoundedDistancesRev(g *roadnet.Graph, dst roadnet.VertexID, sources []roadnet.VertexID, bound float64, w Weight, out []float64) {
	ws.ensure(g)
	ws.beginBidirectional()
	gen := ws.gen
	ws.tgtGen++
	if ws.tgtGen == 0 {
		clearU32(ws.tgtStamp)
		ws.tgtGen = 1
	}
	tgen := ws.tgtGen
	remaining := 0
	for _, s := range sources {
		if ws.tgtStamp[s] != tgen {
			ws.tgtStamp[s] = tgen
			remaining++
		}
	}
	ws.distB[dst] = 0
	ws.reachB[dst] = gen
	ws.heapB.push(dst, 0)
	for !ws.heapB.empty() && remaining > 0 {
		v, d := ws.heapB.pop()
		if d > bound {
			break
		}
		if ws.tgtStamp[v] == tgen {
			ws.tgtStamp[v] = tgen - 1
			remaining--
		}
		ins := g.InEdges(v)
		froms := g.InNeighbors(v)
		for i, eid := range ins {
			from := froms[i]
			nd := d + w(g.Edge(eid))
			if ws.reachB[from] != gen || nd < ws.distB[from] {
				ws.distB[from] = nd
				ws.reachB[from] = gen
				ws.parentB[from] = eid
				ws.heapB.update(from, nd)
			}
		}
	}
	for j, s := range sources {
		if ws.reachB[s] == gen && ws.distB[s] <= bound {
			out[j] = ws.distB[s]
		} else {
			out[j] = math.Inf(1)
		}
	}
}

// SeededDistances runs a multi-source forward Dijkstra whose frontier
// starts from the given seeds, writing out[v] = min over seeds of
// seed.Dist + cost(seed.V → v) for every vertex reached at cost at most
// bound, and +Inf for the rest. out must have length g.NumVertices().
// It is the corridor-extraction primitive: with seeds carrying exact
// full-graph distances dist(s, b) at a shard's boundary, out[v] is the
// exact full-graph dist(s, v) for every owned v inside the bound.
func (ws *Workspace) SeededDistances(g *roadnet.Graph, seeds []Seed, bound float64, w Weight, out []float64) {
	ws.ensure(g)
	ws.begin()
	gen := ws.gen
	for _, s := range seeds {
		if s.Dist > bound || math.IsInf(s.Dist, 1) {
			continue
		}
		if ws.reach[s.V] != gen || s.Dist < ws.dist[s.V] {
			ws.dist[s.V] = s.Dist
			ws.reach[s.V] = gen
			ws.heap.update(s.V, s.Dist)
		}
	}
	for !ws.heap.empty() {
		v, d := ws.heap.pop()
		if d > bound {
			break
		}
		outs := g.OutEdges(v)
		tos := g.OutNeighbors(v)
		for i, eid := range outs {
			to := tos[i]
			nd := d + w(g.Edge(eid))
			if ws.reach[to] != gen || nd < ws.dist[to] {
				ws.dist[to] = nd
				ws.reach[to] = gen
				ws.heap.update(to, nd)
			}
		}
	}
	for v := range out {
		if ws.reach[v] == gen && ws.dist[v] <= bound {
			out[v] = ws.dist[v]
		} else {
			out[v] = math.Inf(1)
		}
	}
}

// SeededDistancesRev is the backward counterpart of SeededDistances: it
// writes out[v] = min over seeds of cost(v → seed.V) + seed.Dist for
// every vertex within bound, +Inf otherwise. With seeds carrying exact
// distances dist(b, t) at a shard's boundary, out[v] is the exact
// full-graph dist(v, t) for every owned v inside the bound.
func (ws *Workspace) SeededDistancesRev(g *roadnet.Graph, seeds []Seed, bound float64, w Weight, out []float64) {
	ws.ensure(g)
	ws.beginBidirectional()
	gen := ws.gen
	for _, s := range seeds {
		if s.Dist > bound || math.IsInf(s.Dist, 1) {
			continue
		}
		if ws.reachB[s.V] != gen || s.Dist < ws.distB[s.V] {
			ws.distB[s.V] = s.Dist
			ws.reachB[s.V] = gen
			ws.heapB.update(s.V, s.Dist)
		}
	}
	for !ws.heapB.empty() {
		v, d := ws.heapB.pop()
		if d > bound {
			break
		}
		ins := g.InEdges(v)
		froms := g.InNeighbors(v)
		for i, eid := range ins {
			from := froms[i]
			nd := d + w(g.Edge(eid))
			if ws.reachB[from] != gen || nd < ws.distB[from] {
				ws.distB[from] = nd
				ws.reachB[from] = gen
				ws.heapB.update(from, nd)
			}
		}
	}
	for v := range out {
		if ws.reachB[v] == gen && ws.distB[v] <= bound {
			out[v] = ws.distB[v]
		} else {
			out[v] = math.Inf(1)
		}
	}
}
