package spath

import (
	"context"
	"math"
	"sort"

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
// Pending candidates are ordered by (cost, creation order): equal-cost
// candidates are emitted in the order their spur searches found them. The
// enumeration knows its emission budget, maxProbe paths counting the first,
// so when next runs at most room = maxProbe − len(paths) more paths can
// ever be emitted. A pending candidate leaves the list only by being
// emitted, and emission takes the list's head, so a candidate with room
// others ahead of it can never be emitted: room emissions would have to
// take all of them first. The pending list is therefore a sorted slice
// capped at room, and the bound is exact:
//   - a new candidate is admitted only when the list has room or the
//     candidate costs strictly less than its last entry (a tie loses, as
//     creation order puts it after), which then drops out;
//   - once the list is full, each spur search is given a limit, the last
//     entry's cost minus the root's, and stops as soon as its admissible
//     A* key passes it: it could only have found a candidate the admit
//     rule drops. The limit carries a relative slack of 1e-9 of the last
//     entry's cost, far above the rounding gap between root cost + spur
//     distance and the left-to-right sum over the joined edges, which is
//     the cost the admit rule compares.
//
// Emission pops the head, so the cap shrinks with room and never needs
// trimming; and since room ≥ 1 whenever next runs, the cap never empties
// a list the unbounded enumeration would emit from.
//
// Textbook Yen discards a spur result it has seen before. With Lawler's
// rule no search finds one, so no record of seen paths is kept. A search's
// region is the set of paths it can return: those that start with its
// root and whose edge at the spur index is not banned. Emitting P, the
// path found in some region, splits that region less P into the regions of
// P's own searches, which are disjoint because each leaves P at a
// different index. (The ban sets are exactly these regions': an emitted
// path sharing P's first d+1 edges, d being P's deviation index, would lie
// in P's region.) Only a region whose path was emitted is ever split, and
// the split leaves that path out, so any two regions searched are nested
// or disjoint and a path found earlier lies outside every region searched
// after it. A spur result is therefore never a path already emitted,
// pending or dropped by the cap; TestYenRegionsNeverRepeat pins it, and
// refYen, which keeps the textbook check, is compared in every reference
// test.
//
// A pending candidate is not a Path: it is its cost, the emitted path it
// was spurred from, the spur index and a span of the workspace's spur
// arena. A spur search writes its edges at the arena's end, the cost is
// computed from the root and those edges, and a dropped spur is cut off
// again; the Path is built only when next emits the candidate.
//
// The enumeration owns one reverse shortest-path tree T to dst, built by
// newYenEnum under the query's weights (node classification, after Feng,
// "Finding k shortest simple paths in directed graphs: a node
// classification algorithm", Networks 2014). T serves three roles: the
// first path is src's tree path; T's distances, capped at the first path's
// cost, are every spur search's exact A* potential; and a spur search
// stops at the first vertex whose tree path avoids its bans, the rest of
// the spur being that tree path (Workspace.spurSearch).
//
// All spur queries share the enclosing pooled Workspace: the banned
// vertex/edge sets and the clean memo are generation-stamped arrays rather
// than per-iteration maps, and the edge-weight table is the workspace's
// current one.
type yenEnum struct {
	g        *roadnet.Graph
	ws       *Workspace
	dst      roadnet.VertexID
	maxProbe int       // emission budget, counting the first path
	paths    []Path    // emitted so far, increasing cost
	devs     []int     // devs[j] is the spur index paths[j] was created at
	pending  []yenCand // sorted by (cost, creation order), at most maxProbe − len(paths) long
	searches int       // spur searches run
	cut      int       // spur searches the pending list's bound stopped before they found a spur
	shared   []int     // scratch: leading edges each emitted path shares with the one being spurred
}

// yenCand is a pending candidate: paths[parent].Edges[:dev] followed by
// the spur edges ws.spur[lo:hi], at the given cost.
type yenCand struct {
	cost        float64
	parent, dev int32
	lo, hi      int32
}

// newYenEnum builds the reverse shortest-path tree to dst on ws's weight
// table and starts an enumeration whose first emitted path is src's tree
// path and which emits at most maxProbe paths, first included. It returns
// ErrNoPath when dst is unreachable from src and the bound context's error
// when it is canceled during the sweep.
func newYenEnum(g *roadnet.Graph, ws *Workspace, src, dst roadnet.VertexID, maxProbe int) (*yenEnum, error) {
	if !ws.buildTree(g, src, dst) {
		if ws.ctxErr != nil {
			return nil, ws.ctxErr
		}
		return nil, ErrNoPath
	}
	var first Path
	if src == dst {
		first.Vertices = []roadnet.VertexID{src} // no edges, as a point query answers
	} else {
		ws.spur = ws.appendTree(g, ws.spur[:0], src, dst)
		first = joinPaths(g, []roadnet.VertexID{src}, nil, ws.spur, sumWeights(ws.wts, ws.spur))
	}
	ws.spur = ws.spur[:0]
	return &yenEnum{
		g: g, ws: ws, dst: dst, maxProbe: maxProbe,
		paths: []Path{first},
		devs:  []int{0},
	}, nil
}

// next computes the cheapest loopless path after the ones already emitted,
// reporting false when the path set is exhausted or the workspace's bound
// context has been canceled (the caller distinguishes the two via
// ws.ctxErr). It must only be called while fewer than maxProbe paths have
// been emitted.
func (y *yenEnum) next() (Path, bool) {
	ws := y.ws
	if ws.ctxErr != nil {
		return Path{}, false
	}
	wts := ws.wts
	room := y.maxProbe - len(y.paths)
	last := len(y.paths) - 1
	prev := y.paths[last]
	dev := y.devs[last]
	// Roots are compared by edge, not vertex: between parallel edges the
	// vertex sequence does not tell two roots apart.
	y.shared = y.shared[:0]
	for _, p := range y.paths {
		y.shared = append(y.shared, commonPrefix(p.Edges, prev.Edges))
	}
	// Each vertex of the previous path from its deviation index on, except
	// the last, is a spur node. rootCost accumulates the root's weights left
	// to right, so continuing the sum over the spur's edges is
	// sumWeights of the joined path, bit for bit.
	rootCost := sumWeights(wts, prev.Edges[:dev])
	for i := dev; i < len(prev.Vertices)-1; i++ {
		if i > dev {
			rootCost += wts[prev.Edges[i-1]]
		}
		spur := prev.Vertices[i]

		ws.resetBans(y.g)
		// Ban the next edge of every accepted path sharing this root.
		for j, p := range y.paths {
			if y.shared[j] >= i && len(p.Edges) > i {
				ws.banEdge(p.Edges[i])
			}
		}
		// Ban root vertices (except the spur) to keep paths loopless.
		for _, v := range prev.Vertices[:i] {
			ws.banVertex(v)
		}

		// bound is the cost a candidate must beat to be kept: a full
		// list's last entry's.
		bound, limit := math.Inf(1), math.Inf(1)
		if len(y.pending) == room {
			bound = y.pending[room-1].cost
			limit = bound - rootCost + 1e-9*bound
		}
		y.searches++
		reached, cut := ws.spurSearch(y.g, spur, y.dst, limit)
		if cut {
			y.cut++
		}
		if !reached {
			continue
		}
		lo := len(ws.spur)
		ws.spur = appendParentEdges(ws.spur, y.g, ws.lab, spur, ws.meet)
		ws.spur = ws.appendTree(y.g, ws.spur, ws.meet, y.dst)
		c := yenCand{cost: rootCost, parent: int32(last), dev: int32(i), lo: int32(lo), hi: int32(len(ws.spur))}
		for _, eid := range ws.spur[lo:] {
			c.cost += wts[eid]
		}
		if c.cost >= bound {
			ws.spur = ws.spur[:lo]
			continue
		}
		y.admit(c, room)
	}
	if len(y.pending) == 0 {
		return Path{}, false
	}
	c := y.pending[0]
	y.pending = y.pending[:copy(y.pending, y.pending[1:])]
	root := y.paths[c.parent]
	p := joinPaths(y.g, root.Vertices[:c.dev+1], root.Edges[:c.dev], ws.spur[c.lo:c.hi], c.cost)
	y.paths = append(y.paths, p)
	y.devs = append(y.devs, int(c.dev))
	return p, true
}

// admit inserts c after every pending candidate that costs no more — c is
// the newest, so that is its (cost, creation order) place — dropping the
// last candidate when the list already holds room. The caller has checked
// that a full list's last candidate costs more than c.
func (y *yenEnum) admit(c yenCand, room int) {
	p := y.pending
	at := sort.Search(len(p), func(j int) bool { return p[j].cost > c.cost })
	if len(p) < room {
		p = append(p, yenCand{})
	}
	copy(p[at+1:], p[at:])
	p[at] = c
	y.pending = p
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
	// Pops is the number of heap pops the run made: its reverse
	// shortest-path tree's sweep and every spur search.
	Pops int
}

// enumerate is the one body behind TopK, DiversifiedTopK and
// DiversifiedTopKStatsCtx. The enumeration runs under the weight table wts
// when it is non-nil (a WeightTable of g) and under a per-query fill of w
// into the workspace otherwise. Paths are pulled in Yen order — the
// first is the tree's (newYenEnum) — and greedily accepted — every one when
// sim is nil, else each one whose similarity to everything accepted so far
// is at most threshold — until k are accepted, maxProbe have been examined,
// or the path set is exhausted.
func enumerate(ctx context.Context, g *roadnet.Graph, wts []float64, w Weight, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, EnumStats, error) {
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
	// One weight per edge, shared by the tree and every spur query below.
	if wts != nil {
		ws.useWeights(wts)
	} else {
		ws.fillWeights(g, w)
	}
	pops := ws.heap.pops
	y, err := newYenEnum(g, ws, src, dst, maxProbe)
	if err != nil {
		st.Pops = ws.heap.pops - pops
		return nil, st, err
	}
	p := y.paths[0]
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
	st.Pops = ws.heap.pops - pops
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

// joinPaths materializes the path of a root and the spur edges that
// continue it, at the given cost.
func joinPaths(g *roadnet.Graph, rootVertices []roadnet.VertexID, rootEdges, spurEdges []roadnet.EdgeID, cost float64) Path {
	edges := make([]roadnet.EdgeID, 0, len(rootEdges)+len(spurEdges))
	edges = append(edges, rootEdges...)
	edges = append(edges, spurEdges...)
	vertices := make([]roadnet.VertexID, 0, len(edges)+1)
	vertices = append(vertices, rootVertices...)
	for _, eid := range spurEdges {
		vertices = append(vertices, g.Edge(eid).To)
	}
	return Path{Vertices: vertices, Edges: edges, Cost: cost}
}
