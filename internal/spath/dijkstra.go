package spath

import (
	"context"

	"pathrank/internal/roadnet"
)

// Dijkstra returns a minimum-cost path from src to dst under w, or ErrNoPath
// if dst is unreachable. Search state comes from a pooled Workspace, so
// repeated queries do not reallocate O(n) arrays; callers issuing many
// queries in a row can hold their own Workspace and call its methods
// directly to also skip the pool round-trip.
func Dijkstra(g *roadnet.Graph, src, dst roadnet.VertexID, w Weight) (Path, error) {
	ws := GetWorkspace(g)
	defer ws.Release()
	return ws.Dijkstra(g, src, dst, w)
}

// DijkstraCtx is Dijkstra honoring ctx: cancellation aborts the search and
// returns ctx's error. See Workspace.bindContext for the amortized-poll
// contract (bit-identical results and no extra allocations when ctx is
// never canceled).
func DijkstraCtx(ctx context.Context, g *roadnet.Graph, src, dst roadnet.VertexID, w Weight) (Path, error) {
	ws := GetWorkspace(g)
	defer ws.Release()
	ws.bindContext(ctx)
	return ws.Dijkstra(g, src, dst, w)
}

// DijkstraAll computes minimum costs from src to every vertex. Unreachable
// vertices have cost math.Inf(1). It is used as a test oracle.
func DijkstraAll(g *roadnet.Graph, src roadnet.VertexID, w Weight) []float64 {
	ws := GetWorkspace(g)
	defer ws.Release()
	return ws.DijkstraAll(g, src, w)
}
