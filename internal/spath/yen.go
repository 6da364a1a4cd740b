package spath

import (
	"context"

	"pathrank/internal/roadnet"
)

// yenEnum enumerates loopless shortest paths from a fixed source to a fixed
// destination in increasing cost order (Yen's algorithm), one path per next
// call. The enumerator form is what makes DiversifiedTopK lazy: it pulls
// paths only until enough diverse ones are accepted, instead of eagerly
// enumerating the full probe budget and filtering afterwards.
//
// A path created by a spur search at index i of its parent shares the
// parent's first i edges, so at every index below i its ban set is the one
// an earlier emitted path already searched under and the result would be a
// duplicate. next therefore spurs only from that deviation index onward
// (Lawler's rule); the sequence of pending candidates, and so the emitted
// sequence, is the one spurring from index 0 produces.
//
// Pending candidates sit in a min-heap ordered by (cost, creation order):
// equal-cost candidates are emitted in the order their spur searches found
// them.
//
// All spur queries share the enclosing pooled Workspace: the banned
// vertex/edge sets are generation-stamped arrays rather than per-iteration
// maps, the edge-weight table is the workspace's current one, and the goal
// heuristic (geometric, strengthened by an engine's landmark bounds when it
// has them) is memoized per destination.
type yenEnum struct {
	g        *roadnet.Graph
	ws       *Workspace
	dst      roadnet.VertexID
	paths    []Path // emitted so far, increasing cost
	devs     []int  // devs[j] is the spur index paths[j] was created at
	pending  []yenCand
	searches int             // spur searches run
	seen     map[string]bool // every path ever created, emitted or pending
	shared   []int           // scratch: leading edges each emitted path shares with the one being spurred
}

// yenCand is a pending candidate: the path, the spur index it deviates
// from its parent at, and its creation sequence number.
type yenCand struct {
	Path
	dev, seq int
}

func (a yenCand) before(b yenCand) bool {
	return a.Cost < b.Cost || (a.Cost == b.Cost && a.seq < b.seq)
}

// newYenEnum starts an enumeration whose first emitted path is first. The
// caller must have pointed ws's weight table and goal heuristic at the
// query's weight and dst.
func newYenEnum(g *roadnet.Graph, ws *Workspace, dst roadnet.VertexID, first Path) *yenEnum {
	return &yenEnum{
		g: g, ws: ws, dst: dst,
		paths: []Path{first},
		devs:  []int{0},
		seen:  map[string]bool{pathKey(first): true},
	}
}

// next computes the cheapest loopless path after the ones already emitted,
// reporting false when the path set is exhausted or the workspace's bound
// context has been canceled (the caller distinguishes the two via
// ws.ctxErr).
func (y *yenEnum) next() (Path, bool) {
	if y.ws.ctxErr != nil {
		return Path{}, false
	}
	last := len(y.paths) - 1
	prev := y.paths[last]
	// Roots are compared by edge, not vertex: between parallel edges the
	// vertex sequence does not tell two roots apart.
	y.shared = y.shared[:0]
	for _, p := range y.paths {
		y.shared = append(y.shared, commonPrefix(p.Edges, prev.Edges))
	}
	// Each vertex of the previous path from its deviation index on, except
	// the last, is a spur node.
	for i := y.devs[last]; i < len(prev.Vertices)-1; i++ {
		spur := prev.Vertices[i]
		rootVertices := prev.Vertices[:i+1]
		rootEdges := prev.Edges[:i]

		y.ws.resetBans(y.g)
		// Ban the next edge of every accepted path sharing this root.
		for j, p := range y.paths {
			if y.shared[j] >= i && len(p.Edges) > i {
				y.ws.banEdge(p.Edges[i])
			}
		}
		// Ban root vertices (except the spur) to keep paths loopless.
		for _, v := range rootVertices[:i] {
			y.ws.banVertex(v)
		}

		y.searches++
		spurPath, ok := y.ws.dijkstraConstrained(y.g, spur, y.dst)
		if !ok {
			continue
		}
		total := joinPaths(y.ws.wts, rootVertices, rootEdges, spurPath)
		key := pathKey(total)
		if y.seen[key] {
			continue
		}
		y.seen[key] = true
		y.push(yenCand{total, i, len(y.seen)})
	}
	if len(y.pending) == 0 {
		return Path{}, false
	}
	c := y.pop()
	y.paths = append(y.paths, c.Path)
	y.devs = append(y.devs, c.dev)
	return c.Path, true
}

func (y *yenEnum) push(c yenCand) {
	h := append(y.pending, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
	y.pending = h
}

func (y *yenEnum) pop() yenCand {
	h := y.pending
	top := h[0]
	n := len(h) - 1
	c := h[n]
	h[n] = yenCand{} // drop the path references
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && h[r].before(h[l]) {
			l = r
		}
		if !h[l].before(c) {
			break
		}
		h[i] = h[l]
		i = l
	}
	if n > 0 {
		h[i] = c
	}
	y.pending = h
	return top
}

// EnumStats describes one Yen enumeration run: how many paths were
// examined, the largest cost among them, and whether the loopless path
// set was exhausted before the caller's budget. The sharded router uses
// it to certify corridor-restricted enumerations: a run whose MaxCost
// stayed strictly inside the corridor bound and that did not exhaust the
// (restricted) path set is bit-identical to the same run on the full
// graph.
type EnumStats struct {
	// Probes is the number of paths pulled from the enumerator,
	// including the initial shortest path.
	Probes int
	// MaxCost is the largest cost among the examined paths (Yen emits in
	// increasing cost order, so this is the cost of the last one); 0 when
	// nothing was examined.
	MaxCost float64
	// Exhausted reports that the enumerator ran out of loopless paths
	// before the probe/k budget was spent.
	Exhausted bool
	// SpurSearches is the number of constrained searches the run made.
	SpurSearches int
}

// enumerate is the one body behind TopK, DiversifiedTopK and
// DiversifiedTopKStatsCtx. The first path comes from e's
// point-to-point query (a CH bidirectional upward search or goal-directed
// ALT A*) when e is non-nil and from plain Dijkstra on g under w otherwise;
// spur searches read e's weight table and landmark bound, or a per-query
// fill of w and the geometric bound. Paths are then pulled in Yen order and
// greedily accepted — every one when sim is nil, else each one whose
// similarity to everything accepted so far is at most threshold — until k
// are accepted, maxProbe have been examined, or the path set is exhausted.
func enumerate(ctx context.Context, g *roadnet.Graph, e Engine, w Weight, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, EnumStats, error) {
	var st EnumStats
	if k <= 0 {
		return nil, st, nil
	}
	if maxProbe < k {
		maxProbe = 10 * k
	}
	ws := GetWorkspace(g)
	defer ws.Release()
	ws.bindContext(ctx)
	// One weight per edge and one goal-heuristic cache, shared by every
	// spur query below.
	var p Path
	var err error
	if e != nil {
		ws.useWeights(e.weights())
		ws.setGoalAux(g, dst, e.spurHeuristic(dst))
		p, err = e.ShortestCtx(ctx, src, dst)
	} else {
		ws.fillWeights(g, w)
		ws.setGoal(g, dst)
		p, err = ws.Dijkstra(g, src, dst, w)
	}
	if err != nil {
		return nil, st, err
	}
	y := newYenEnum(g, ws, dst, p)
	accepted := make([]Path, 0, k)
	st.Probes, st.MaxCost = 1, p.Cost
	for {
		if dissimilar(p, accepted, sim, threshold) {
			accepted = append(accepted, p)
			if len(accepted) == k {
				break
			}
		}
		if st.Probes >= maxProbe {
			break
		}
		var more bool
		if p, more = y.next(); !more {
			st.Exhausted = ws.ctxErr == nil
			break
		}
		st.Probes++
		st.MaxCost = p.Cost
	}
	st.SpurSearches = y.searches
	if ws.ctxErr != nil {
		return nil, st, ws.ctxErr
	}
	return accepted, st, nil
}

func dissimilar(p Path, accepted []Path, sim Similarity, threshold float64) bool {
	if sim == nil {
		return true
	}
	for _, q := range accepted {
		if sim(p, q) > threshold {
			return false
		}
	}
	return true
}

// TopK returns up to k loopless shortest paths from src to dst in increasing
// cost order, using Yen's algorithm. This implements the paper's TkDI
// candidate-generation strategy ("top-k shortest paths w.r.t. distance").
// It returns ErrNoPath if even the shortest path does not exist.
func TopK(g *roadnet.Graph, src, dst roadnet.VertexID, k int, w Weight) ([]Path, error) {
	paths, _, err := enumerate(context.Background(), g, nil, w, src, dst, k, nil, 0, k)
	return paths, err
}

// commonPrefix returns how many leading edges a and b share.
func commonPrefix(a, b []roadnet.EdgeID) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// sumWeights adds the weights of edges left to right — exactly Dijkstra's
// association, so a path's cost is bit-identical however it was found.
func sumWeights(wts []float64, edges []roadnet.EdgeID) float64 {
	var cost float64
	for _, eid := range edges {
		cost += wts[eid]
	}
	return cost
}

func joinPaths(wts []float64, rootVertices []roadnet.VertexID, rootEdges []roadnet.EdgeID, spur Path) Path {
	edges := make([]roadnet.EdgeID, 0, len(rootEdges)+len(spur.Edges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spur.Edges...)
	vertices := make([]roadnet.VertexID, 0, len(edges)+1)
	vertices = append(vertices, rootVertices...)
	vertices = append(vertices, spur.Vertices[1:]...)
	return Path{Vertices: vertices, Edges: edges, Cost: sumWeights(wts, edges)}
}

func pathKey(p Path) string {
	b := make([]byte, 0, len(p.Edges)*4)
	for _, e := range p.Edges {
		b = append(b, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(b)
}
