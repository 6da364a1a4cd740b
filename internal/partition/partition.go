// Package partition implements prep-time geometric graph partitioning for
// the sharded serving tier: a road network is split into P balanced parts
// by recursive KD (coordinate-median) bisection, each part is extracted as
// an induced subgraph that keeps the full vertex table under global IDs,
// and the boundary vertices — the exact separator between shards — get
// precomputed boundary-to-boundary distance tables under both metrics.
//
// The separator property is what makes the router's cross-shard stitching
// exact: every path between vertices of different shards crosses the
// boundary set, so full-graph distances decompose as
//
//	d(s,t) = min over boundary b of d(s,b) + d(b,t)
//
// with the inner d(s,b) computable from one shard's subgraph plus the
// precomputed boundary-to-boundary table (see internal/router).
package partition

import (
	"fmt"
	"sort"

	"pathrank/internal/roadnet"
)

// Result is a P-way vertex partition of one road network.
type Result struct {
	// Parts is the partition count.
	Parts int
	// Owner maps every vertex to its owning shard in [0, Parts).
	Owner []int32
	// Boundary lists each shard's boundary vertices (owned vertices with
	// at least one incident cut edge, in either direction), ascending.
	// The per-shard lists are disjoint; their union is the separator.
	Boundary [][]roadnet.VertexID
	// CutEdges holds the full edge records (global IDs, explicit lengths
	// and times) of every edge whose endpoints are owned by different
	// shards. Cut edges belong to no shard subgraph; the router owns them.
	CutEdges []roadnet.Edge
}

// Split partitions g's vertices into parts balanced parts by recursive
// geometric bisection: at each level the vertex set is sorted along its
// wider coordinate axis (ties broken by vertex ID, so the partition is
// deterministic) and cut proportionally to the part counts on each side.
// Every leaf receives within one vertex of the perfectly proportional
// share, so shard sizes lie in [floor(V/P), ceil(V/P)] up to rounding
// accumulated across levels — Imbalance reports the achieved ratio.
func Split(g *roadnet.Graph, parts int) (*Result, error) {
	n := g.NumVertices()
	if parts < 2 {
		return nil, fmt.Errorf("partition: need at least 2 parts, got %d", parts)
	}
	if parts > n {
		return nil, fmt.Errorf("partition: %d parts for %d vertices", parts, n)
	}
	owner := make([]int32, n)
	vs := make([]roadnet.VertexID, n)
	for i := range vs {
		vs[i] = roadnet.VertexID(i)
	}
	var bisect func(vs []roadnet.VertexID, p int, base int32)
	bisect = func(vs []roadnet.VertexID, p int, base int32) {
		if p == 1 {
			for _, v := range vs {
				owner[v] = base
			}
			return
		}
		minLon, maxLon := g.Vertex(vs[0]).Point.Lon, g.Vertex(vs[0]).Point.Lon
		minLat, maxLat := g.Vertex(vs[0]).Point.Lat, g.Vertex(vs[0]).Point.Lat
		for _, v := range vs[1:] {
			pt := g.Vertex(v).Point
			if pt.Lon < minLon {
				minLon = pt.Lon
			}
			if pt.Lon > maxLon {
				maxLon = pt.Lon
			}
			if pt.Lat < minLat {
				minLat = pt.Lat
			}
			if pt.Lat > maxLat {
				maxLat = pt.Lat
			}
		}
		byLon := maxLon-minLon >= maxLat-minLat
		sort.Slice(vs, func(i, j int) bool {
			var ci, cj float64
			if byLon {
				ci, cj = g.Vertex(vs[i]).Point.Lon, g.Vertex(vs[j]).Point.Lon
			} else {
				ci, cj = g.Vertex(vs[i]).Point.Lat, g.Vertex(vs[j]).Point.Lat
			}
			if ci != cj {
				return ci < cj
			}
			return vs[i] < vs[j]
		})
		pl := p / 2
		k := len(vs) * pl / p
		bisect(vs[:k], pl, base)
		bisect(vs[k:], p-pl, base+int32(pl))
	}
	bisect(vs, parts, 0)

	res := &Result{
		Parts:    parts,
		Owner:    owner,
		Boundary: make([][]roadnet.VertexID, parts),
	}
	isBoundary := make([]bool, n)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		if owner[e.From] != owner[e.To] {
			res.CutEdges = append(res.CutEdges, e)
			isBoundary[e.From] = true
			isBoundary[e.To] = true
		}
	}
	for v := 0; v < n; v++ {
		if isBoundary[v] {
			s := owner[v]
			res.Boundary[s] = append(res.Boundary[s], roadnet.VertexID(v))
		}
	}
	return res, nil
}

// Imbalance returns max shard size divided by the perfect share V/P.
func (r *Result) Imbalance() float64 {
	counts := make([]int, r.Parts)
	for _, s := range r.Owner {
		counts[s]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	return float64(max) * float64(r.Parts) / float64(len(r.Owner))
}

// BoundaryVertices returns the global separator: every shard's boundary
// vertices merged, ascending. The per-shard lists are disjoint (each
// boundary vertex has exactly one owner), so this is a sorted union.
func (r *Result) BoundaryVertices() []roadnet.VertexID {
	var all []roadnet.VertexID
	for _, b := range r.Boundary {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// ExtractShard builds shard s's induced subgraph: the FULL vertex table
// (global IDs — the model's vertex vocabulary must not shift) and exactly
// the edges with both endpoints owned by s, renumbered densely in global
// edge order. The returned mapping translates local edge IDs back to
// global ones; lengths and times are copied bit-for-bit, so any path
// metric computed in the shard equals the full-graph value.
func ExtractShard(g *roadnet.Graph, owner []int32, s int32) (*roadnet.Graph, []roadnet.EdgeID) {
	full := g.RawData()
	var edges []roadnet.Edge
	var toGlobal []roadnet.EdgeID
	for _, e := range full.Edges {
		if owner[e.From] == s && owner[e.To] == s {
			le := e
			le.ID = roadnet.EdgeID(len(edges))
			edges = append(edges, le)
			toGlobal = append(toGlobal, e.ID)
		}
	}
	return roadnet.NewGraphFromData(full.Vertices, edges), toGlobal
}
