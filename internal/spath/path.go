// Package spath implements shortest-path search over road networks:
// Dijkstra (point-to-point, one-to-all, bounded one-to-many and seeded
// multi-source, forward or reverse — all one relaxation loop), Yen's top-k
// shortest paths, and the diversified top-k variant (D-TkDI) used by
// PathRank to generate training candidates. There is no preprocessing
// index: the contraction-hierarchy names in prep.go are empty shims that
// benchmark/ still calls.
//
// All algorithms operate on a Weight function so the same code serves
// shortest-distance and fastest-time queries.
package spath

import (
	"fmt"

	"pathrank/internal/roadnet"
)

// Weight extracts the cost of traversing an edge. Costs must be positive.
type Weight func(e roadnet.Edge) float64

// ByLength weights an edge by its length in meters.
func ByLength(e roadnet.Edge) float64 { return e.Length }

// ByTime weights an edge by its free-flow travel time in seconds.
func ByTime(e roadnet.Edge) float64 { return e.Time }

// Path is a connected sequence of edges through a graph. Vertices holds the
// visited vertex sequence (len(Edges)+1 entries) and Cost the total weight
// under the query's Weight function.
type Path struct {
	Vertices []roadnet.VertexID
	Edges    []roadnet.EdgeID
	Cost     float64
}

// Source returns the first vertex. It panics on an empty path.
func (p Path) Source() roadnet.VertexID { return p.Vertices[0] }

// Destination returns the last vertex. It panics on an empty path.
func (p Path) Destination() roadnet.VertexID { return p.Vertices[len(p.Vertices)-1] }

// Len returns the number of edges.
func (p Path) Len() int { return len(p.Edges) }

// Length returns the total geometric length of the path in meters.
func (p Path) Length(g *roadnet.Graph) float64 {
	var sum float64
	for _, eid := range p.Edges {
		sum += g.Edge(eid).Length
	}
	return sum
}

// Time returns the total free-flow travel time in seconds.
func (p Path) Time(g *roadnet.Graph) float64 {
	var sum float64
	for _, eid := range p.Edges {
		sum += g.Edge(eid).Time
	}
	return sum
}

// Equal reports whether two paths traverse the same edge sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// Validate checks that the path is connected in g, starts at its declared
// source, and is free of repeated vertices (simple).
func (p Path) Validate(g *roadnet.Graph) error {
	if len(p.Vertices) == 0 {
		return fmt.Errorf("spath: empty path")
	}
	if len(p.Vertices) != len(p.Edges)+1 {
		return fmt.Errorf("spath: %d vertices but %d edges", len(p.Vertices), len(p.Edges))
	}
	seen := make(map[roadnet.VertexID]bool, len(p.Vertices))
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		if e.From != p.Vertices[i] || e.To != p.Vertices[i+1] {
			return fmt.Errorf("spath: edge %d (%d->%d) does not connect vertices %d->%d at position %d",
				eid, e.From, e.To, p.Vertices[i], p.Vertices[i+1], i)
		}
	}
	for _, v := range p.Vertices {
		if seen[v] {
			return fmt.Errorf("spath: vertex %d repeated (path is not simple)", v)
		}
		seen[v] = true
	}
	return nil
}

// Clone returns a deep copy of p.
func (p Path) Clone() Path {
	return Path{
		Vertices: append([]roadnet.VertexID(nil), p.Vertices...),
		Edges:    append([]roadnet.EdgeID(nil), p.Edges...),
		Cost:     p.Cost,
	}
}

// ErrNoPath is returned when the destination is unreachable.
var ErrNoPath = fmt.Errorf("spath: no path exists")

// reconstruct walks a search's parent edges from dst back to src.
func reconstruct(g *roadnet.Graph, lab []label, src, dst roadnet.VertexID, cost float64) Path {
	edges := appendParentEdges(nil, g, lab, src, dst)
	vertices := make([]roadnet.VertexID, 0, len(edges)+1)
	vertices = append(vertices, src)
	for _, eid := range edges {
		vertices = append(vertices, g.Edge(eid).To)
	}
	return Path{Vertices: vertices, Edges: edges, Cost: cost}
}

// appendParentEdges appends to buf the src→dst edges that a search's
// parent edges trace back from dst, and returns the extended slice.
func appendParentEdges(buf []roadnet.EdgeID, g *roadnet.Graph, lab []label, src, dst roadnet.VertexID) []roadnet.EdgeID {
	start := len(buf)
	edges := buf
	for v := dst; v != src; {
		eid := lab[v].parent
		edges = append(edges, eid)
		v = g.Edge(eid).From
	}
	for i, j := start, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return edges
}
