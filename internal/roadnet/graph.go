// Package roadnet models a spatial road network as a weighted directed
// graph and provides a synthetic generator that produces networks with the
// structural characteristics of regional road systems (grid-like residential
// streets, arterial roads, ring connections, varying speed limits).
//
// Vertices carry geographic coordinates; edges carry a length in meters, a
// travel time in seconds derived from the road category's speed limit, and
// the category itself. The graph is the substrate for shortest-path search
// (internal/spath), trajectory simulation (internal/traj) and network
// embedding (internal/node2vec).
package roadnet

import (
	"fmt"
	"math"

	"pathrank/internal/geo"
)

// VertexID identifies a vertex; IDs are dense in [0, NumVertices).
type VertexID int32

// EdgeID identifies an edge; IDs are dense in [0, NumEdges).
type EdgeID int32

// Category classifies a road segment. Categories determine speed limits and
// are used by the driver-preference model in internal/traj.
type Category uint8

// Road categories, ordered from fastest to slowest.
const (
	Motorway Category = iota
	Primary
	Secondary
	Residential
	numCategories
)

// NumCategories is the number of distinct road categories.
const NumCategories = int(numCategories)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Motorway:
		return "motorway"
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	case Residential:
		return "residential"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// SpeedKmH returns the category's free-flow speed in km/h.
func (c Category) SpeedKmH() float64 {
	switch c {
	case Motorway:
		return 110
	case Primary:
		return 80
	case Secondary:
		return 60
	default:
		return 40
	}
}

// Vertex is a road intersection or shape node.
type Vertex struct {
	ID    VertexID
	Point geo.Point
}

// Edge is a directed road segment from Vertex From to Vertex To.
type Edge struct {
	ID       EdgeID
	From     VertexID
	To       VertexID
	Length   float64 // meters
	Time     float64 // free-flow travel seconds
	Category Category
}

// Graph is a directed spatial graph with CSR-style adjacency for fast
// traversal. Construct with NewBuilder; a Graph is immutable afterwards and
// safe for concurrent readers.
type Graph struct {
	vertices []Vertex
	edges    []Edge

	// CSR out-adjacency: outEdges[outStart[v]:outStart[v+1]] are edge IDs
	// leaving v. Same layout for in-adjacency. outTo/inFrom mirror the
	// opposite endpoint of each adjacency slot so shortest-path inner loops
	// can relax neighbors without loading whole Edge structs.
	outStart []int32
	outEdges []EdgeID
	outTo    []VertexID
	inStart  []int32
	inEdges  []EdgeID
	inFrom   []VertexID
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertex returns the vertex with the given ID.
func (g *Graph) Vertex(id VertexID) Vertex { return g.vertices[id] }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// OutEdges returns the IDs of edges leaving v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) OutEdges(v VertexID) []EdgeID {
	return g.outEdges[g.outStart[v]:g.outStart[v+1]]
}

// InEdges returns the IDs of edges entering v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) InEdges(v VertexID) []EdgeID {
	return g.inEdges[g.inStart[v]:g.inStart[v+1]]
}

// OutNeighbors returns, aligned slot for slot with OutEdges(v), the head
// vertex of each edge leaving v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) OutNeighbors(v VertexID) []VertexID {
	return g.outTo[g.outStart[v]:g.outStart[v+1]]
}

// InNeighbors returns, aligned slot for slot with InEdges(v), the tail
// vertex of each edge entering v. The returned slice aliases internal
// storage and must not be modified.
func (g *Graph) InNeighbors(v VertexID) []VertexID {
	return g.inFrom[g.inStart[v]:g.inStart[v+1]]
}

// FindEdge returns the ID of an edge from u to v and true if one exists.
// If parallel edges exist the one with the smallest length is returned.
func (g *Graph) FindEdge(u, v VertexID) (EdgeID, bool) {
	best := EdgeID(-1)
	bestLen := math.Inf(1)
	for _, eid := range g.OutEdges(u) {
		e := g.edges[eid]
		if e.To == v && e.Length < bestLen {
			best, bestLen = eid, e.Length
		}
	}
	return best, best >= 0
}

// Validate checks structural invariants: endpoint IDs in range, strictly
// positive lengths and times, consistent adjacency. It returns the first
// violation found.
func (g *Graph) Validate() error {
	n := VertexID(len(g.vertices))
	for i, v := range g.vertices {
		if v.ID != VertexID(i) {
			return fmt.Errorf("vertex %d has ID %d", i, v.ID)
		}
	}
	for i, e := range g.edges {
		if e.ID != EdgeID(i) {
			return fmt.Errorf("edge %d has ID %d", i, e.ID)
		}
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return fmt.Errorf("edge %d endpoints (%d,%d) out of range [0,%d)", i, e.From, e.To, n)
		}
		if e.From == e.To {
			return fmt.Errorf("edge %d is a self-loop at vertex %d", i, e.From)
		}
		if !(e.Length > 0) {
			return fmt.Errorf("edge %d has non-positive length %v", i, e.Length)
		}
		if !(e.Time > 0) {
			return fmt.Errorf("edge %d has non-positive time %v", i, e.Time)
		}
	}
	var outCount int
	for v := VertexID(0); v < n; v++ {
		for _, eid := range g.OutEdges(v) {
			if g.edges[eid].From != v {
				return fmt.Errorf("out-adjacency of %d lists edge %d with From=%d", v, eid, g.edges[eid].From)
			}
			outCount++
		}
	}
	if outCount != len(g.edges) {
		return fmt.Errorf("out-adjacency covers %d edges, graph has %d", outCount, len(g.edges))
	}
	var inCount int
	for v := VertexID(0); v < n; v++ {
		for _, eid := range g.InEdges(v) {
			if g.edges[eid].To != v {
				return fmt.Errorf("in-adjacency of %d lists edge %d with To=%d", v, eid, g.edges[eid].To)
			}
			inCount++
		}
	}
	if inCount != len(g.edges) {
		return fmt.Errorf("in-adjacency covers %d edges, graph has %d", inCount, len(g.edges))
	}
	return nil
}

// StronglyConnectedFrom returns the set of vertices reachable from src by a
// forward BFS, as a boolean slice indexed by vertex ID.
func (g *Graph) StronglyConnectedFrom(src VertexID) []bool {
	seen := make([]bool, g.NumVertices())
	queue := []VertexID{src}
	seen[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, eid := range g.OutEdges(v) {
			to := g.edges[eid].To
			if !seen[to] {
				seen[to] = true
				queue = append(queue, to)
			}
		}
	}
	return seen
}

// Builder accumulates vertices and edges and produces an immutable Graph.
type Builder struct {
	vertices []Vertex
	edges    []Edge
}

// NewBuilder returns a Builder with capacity hints.
func NewBuilder(vertexHint, edgeHint int) *Builder {
	return &Builder{
		vertices: make([]Vertex, 0, vertexHint),
		edges:    make([]Edge, 0, edgeHint),
	}
}

// AddVertex appends a vertex at p and returns its ID.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	id := VertexID(len(b.vertices))
	b.vertices = append(b.vertices, Vertex{ID: id, Point: p})
	return id
}

// AddEdge appends a directed edge. Length is computed from vertex
// coordinates; travel time from the category speed. It returns the edge ID.
func (b *Builder) AddEdge(from, to VertexID, cat Category) EdgeID {
	length := geo.Distance(b.vertices[from].Point, b.vertices[to].Point)
	if length <= 0 {
		length = 1 // guard against coincident points
	}
	return b.AddEdgeWithLength(from, to, cat, length)
}

// AddEdgeWithLength appends a directed edge with an explicit length in
// meters (e.g. for curved roads longer than the straight-line distance).
func (b *Builder) AddEdgeWithLength(from, to VertexID, cat Category, length float64) EdgeID {
	id := EdgeID(len(b.edges))
	speed := cat.SpeedKmH() / 3.6 // m/s
	b.edges = append(b.edges, Edge{
		ID:       id,
		From:     from,
		To:       to,
		Length:   length,
		Time:     length / speed,
		Category: cat,
	})
	return id
}

// AddBidirectional adds edges in both directions and returns their IDs.
func (b *Builder) AddBidirectional(u, v VertexID, cat Category) (EdgeID, EdgeID) {
	return b.AddEdge(u, v, cat), b.AddEdge(v, u, cat)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.vertices) }

// Vertex returns vertex metadata for an already-added vertex.
func (b *Builder) Vertex(id VertexID) Vertex { return b.vertices[id] }

// Build finalizes the graph, constructing CSR adjacency.
func (b *Builder) Build() *Graph {
	g := &Graph{vertices: b.vertices, edges: b.edges}
	n := len(b.vertices)
	g.outStart = make([]int32, n+1)
	g.inStart = make([]int32, n+1)
	for _, e := range b.edges {
		g.outStart[e.From+1]++
		g.inStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}
	g.outEdges = make([]EdgeID, len(b.edges))
	g.outTo = make([]VertexID, len(b.edges))
	g.inEdges = make([]EdgeID, len(b.edges))
	g.inFrom = make([]VertexID, len(b.edges))
	outPos := make([]int32, n)
	inPos := make([]int32, n)
	copy(outPos, g.outStart[:n])
	copy(inPos, g.inStart[:n])
	for _, e := range b.edges {
		g.outEdges[outPos[e.From]] = e.ID
		g.outTo[outPos[e.From]] = e.To
		outPos[e.From]++
		g.inEdges[inPos[e.To]] = e.ID
		g.inFrom[inPos[e.To]] = e.From
		inPos[e.To]++
	}
	return g
}
