package spath

import (
	"context"
	"math"
	"sync"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
)

// Workspace holds the per-query state of a shortest-path search — distance
// and parent arrays, settled marks and the priority queue — so that repeated
// queries on the same graph reuse memory instead of allocating O(n) fresh
// state each time. Visited marks are generation-stamped: starting a new
// query bumps a counter instead of clearing the arrays, so query setup is
// O(1) regardless of graph size.
//
// A Workspace runs two relaxation loops over one set of arrays. sweep is
// every plain search — point-to-point, one-to-all, bounded one-to-many and
// seeded multi-source, forward or reverse. spurSearch is Yen's spur
// search; it stays separate because it is the hot loop of candidate
// generation and differs from a plain search on every relaxed edge: it
// skips banned vertices and edges, reads the query's weight table instead
// of calling w, and keys the heap by distance plus a memoized goal bound.
//
// A Workspace is not safe for concurrent use; acquire one per goroutine with
// GetWorkspace. Yen's TopK issues hundreds of Dijkstra calls per candidate
// set through a single Workspace, which is where the reuse pays off most.
type Workspace struct {
	// Search state, indexed by vertex; a reverse sweep uses it too.
	dist   []float64
	parent []roadnet.EdgeID
	reach  []uint32 // dist/parent valid iff reach[v] == gen

	gen uint32

	heap heap4

	// wts is the weight of every edge for the current query, so the
	// relaxation loop pays one array load instead of an indirect call with
	// an Edge-struct argument. It is either own's (fillWeights) or an
	// Engine's immutable shared table (useWeights); only own is ever
	// written, so a pooled workspace that last borrowed an engine's table
	// cannot clobber it.
	wts []float64
	own weightTable

	// Ban stamps for constrained (Yen spur) queries.
	banV   []uint32
	banE   []uint32
	banGen uint32

	// Yen scratch, reused by every spur of an enumeration: the last spur
	// search's path edges and a candidate's seen key.
	spur []roadnet.EdgeID
	key  []byte

	// Goal-heuristic cache for the A* spur queries: all spur
	// queries of one TopK call share the same destination, so the scaled
	// straight-line lower bound is memoized per vertex. heurAux, when
	// non-nil, is an additional admissible bound (e.g. ALT landmark
	// distances) combined with the geometric one by max.
	heurV     []float64
	heurStamp []uint32
	heurGen   uint32
	heurPt    geo.Point
	heurScale float64
	heurAux   func(roadnet.VertexID) float64

	// Target stamps for bounded multi-target searches.
	tgtStamp []uint32
	tgtGen   uint32

	// Cancellation state shared with the CH query workspace.
	ctxPoller
}

// ctxCheckEvery is the heap-pop interval between context polls; a power of
// two so the check compiles to a mask test. 1024 pops is microseconds of
// search work, far below any useful request deadline.
const ctxCheckEvery = 1024

// ctxPoller is the amortized cancellation check embedded in the search
// workspaces (Workspace and chWorkspace). The bound ctx, when non-nil, is
// polled every ctxCheckEvery heap pops across all searches bound to it;
// once a poll observes cancellation, ctxErr latches the context's error
// and every subsequent search on the workspace fails immediately until
// the next bindContext. The amortized poll keeps the per-pop cost to a
// counter increment and a mask test, so hot loops stay within the
// zero-alloc and <2% time budget when ctx is never canceled.
type ctxPoller struct {
	ctx     context.Context
	ctxErr  error
	ctxTick uint32
}

// bindContext attaches ctx for subsequent searches. A nil context, or one
// that can never be canceled (context.Background()), disables polling
// entirely. One eager poll catches already-expired contexts even when the
// query would finish under the amortized poll interval.
func (p *ctxPoller) bindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	p.ctx = ctx
	p.ctxErr = nil
	p.ctxTick = 0
	if ctx != nil {
		p.ctxErr = ctx.Err()
	}
}

// clearContext drops the bound context so pooled workspaces do not retain
// request state.
func (p *ctxPoller) clearContext() {
	p.ctx = nil
	p.ctxErr = nil
}

// canceled reports whether the bound context has been canceled, polling it
// at most once every ctxCheckEvery calls. The tick counter deliberately
// persists across the many short spur searches of one Yen enumeration, so
// the poll interval is global to the query rather than per search.
func (p *ctxPoller) canceled() bool {
	if p.ctx == nil {
		return false
	}
	if p.ctxErr != nil {
		return true
	}
	p.ctxTick++
	if p.ctxTick&(ctxCheckEvery-1) != 0 {
		return false
	}
	if err := p.ctx.Err(); err != nil {
		p.ctxErr = err
		return true
	}
	return false
}

// NewWorkspace returns an empty workspace; its arrays are sized lazily to
// whichever graph is queried first. Use it when one goroutine owns a
// long-lived workspace; otherwise prefer GetWorkspace/Release.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool recycles workspaces across package-level query functions.
var wsPool = sync.Pool{New: func() any { return &Workspace{} }}

// GetWorkspace returns a pooled Workspace sized for g. Call Release when
// done to return it to the pool.
func GetWorkspace(g *roadnet.Graph) *Workspace {
	ws := wsPool.Get().(*Workspace)
	ws.ensure(g)
	return ws
}

// Release returns the workspace to the shared pool. The workspace must not
// be used after Release.
func (ws *Workspace) Release() {
	ws.heurAux = nil // do not retain engine closures or tables in the pool
	ws.wts = nil
	ws.clearContext()
	wsPool.Put(ws)
}

// ensure grows the vertex-indexed arrays to cover g.
func (ws *Workspace) ensure(g *roadnet.Graph) {
	n := g.NumVertices()
	if len(ws.dist) < n {
		ws.dist = make([]float64, n)
		ws.parent = make([]roadnet.EdgeID, n)
		ws.reach = make([]uint32, n)
		ws.banV = make([]uint32, n)
		ws.tgtStamp = make([]uint32, n)
		ws.tgtGen = 0
		ws.gen = 0
		// banV and banE share banGen: resetting it invalidates stamps in
		// the fresh banV, so the retained banE must be cleared too or its
		// stale stamps would read as banned once the counter climbs back.
		clearU32(ws.banE)
		ws.banGen = 0
	}
	ws.heap.ensure(n)
}

// begin starts a new query generation: O(1) instead of clearing the arrays.
func (ws *Workspace) begin() {
	ws.gen++
	if ws.gen == 0 { // stamp wrap: clear once every 2^32 queries
		clearU32(ws.reach)
		ws.gen = 1
	}
	ws.heap.reset()
}

func clearU32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// weightTable is the weight of every edge under one Weight function plus
// the best cost-per-meter ratio, which makes the scaled straight-line
// distance an admissible, consistent lower bound under that weight. An
// Engine builds one at construction and shares it, read-only, with every
// query.
type weightTable struct {
	wts   []float64
	scale float64
}

// fill evaluates w once per edge of g into t, reusing t's buffer.
func (t *weightTable) fill(g *roadnet.Graph, w Weight) {
	m := g.NumEdges()
	if cap(t.wts) < m {
		t.wts = make([]float64, m)
	}
	t.wts = t.wts[:m]
	scale := math.Inf(1)
	for i := 0; i < m; i++ {
		e := g.Edge(roadnet.EdgeID(i))
		wt := w(e)
		t.wts[i] = wt
		if r := wt / e.Length; r < scale {
			scale = r
		}
	}
	if math.IsInf(scale, 1) {
		scale = 0
	}
	t.scale = scale
}

// fillWeights points the cached-weight searches at w, evaluated into the
// workspace's own buffer.
func (ws *Workspace) fillWeights(g *roadnet.Graph, w Weight) {
	ws.own.fill(g, w)
	ws.useWeights(&ws.own)
}

// useWeights points the cached-weight searches at a prebuilt table.
func (ws *Workspace) useWeights(t *weightTable) {
	ws.wts = t.wts
	ws.heurScale = t.scale
}

// setGoal points the heuristic cache at dst, invalidating memoized bounds.
func (ws *Workspace) setGoal(g *roadnet.Graph, dst roadnet.VertexID) {
	ws.setGoalAux(g, dst, nil)
}

// setGoalAux points the heuristic cache at dst with an optional auxiliary
// admissible bound (an Engine's landmark tables); the memoized value is the
// max of the geometric and auxiliary bounds, which stays admissible.
func (ws *Workspace) setGoalAux(g *roadnet.Graph, dst roadnet.VertexID, aux func(roadnet.VertexID) float64) {
	n := g.NumVertices()
	if len(ws.heurV) < n {
		ws.heurV = make([]float64, n)
		ws.heurStamp = make([]uint32, n)
		ws.heurGen = 0
	}
	ws.heurGen++
	if ws.heurGen == 0 {
		clearU32(ws.heurStamp)
		ws.heurGen = 1
	}
	ws.heurPt = g.Vertex(dst).Point
	ws.heurAux = aux
}

// heurTo returns the memoized admissible lower bound from v to the goal.
func (ws *Workspace) heurTo(g *roadnet.Graph, v roadnet.VertexID) float64 {
	if ws.heurStamp[v] != ws.heurGen {
		ws.heurStamp[v] = ws.heurGen
		h := geo.Distance(g.Vertex(v).Point, ws.heurPt) * ws.heurScale
		if ws.heurAux != nil {
			if a := ws.heurAux(v); a > h {
				h = a
			}
		}
		ws.heurV[v] = h
	}
	return ws.heurV[v]
}

// --- Ban stamps (Yen spur queries) ---

// resetBans starts a fresh banned set; the edge-stamp array is grown lazily
// because it is indexed by edge, not vertex.
func (ws *Workspace) resetBans(g *roadnet.Graph) {
	if len(ws.banE) < g.NumEdges() {
		ws.banE = make([]uint32, g.NumEdges())
		// Same invariant as ensure: a banGen reset must invalidate the
		// stamps in the retained banV as well.
		clearU32(ws.banV)
		ws.banGen = 0
	}
	ws.banGen++
	if ws.banGen == 0 {
		clearU32(ws.banV)
		clearU32(ws.banE)
		ws.banGen = 1
	}
}

func (ws *Workspace) banVertex(v roadnet.VertexID) { ws.banV[v] = ws.banGen }
func (ws *Workspace) banEdge(e roadnet.EdgeID)     { ws.banE[e] = ws.banGen }

func (ws *Workspace) vertexBanned(v roadnet.VertexID) bool { return ws.banV[v] == ws.banGen }
func (ws *Workspace) edgeBanned(e roadnet.EdgeID) bool     { return ws.banE[e] == ws.banGen }

// --- Searches ---

// sweep is the one relaxation loop of every plain search: Dijkstra from
// seeds, over out-arcs or, when rev, over in-arcs (so dist[v] is then the
// cost from v to the nearest seed). Seeds above bound or at +Inf are
// skipped; duplicate seeds keep the cheapest. w is evaluated per relaxed
// edge — a bounded or early-stopping search touches a fraction of the
// edges, so filling a weight table first would cost more than it saves.
// The relaxation is the one rule the repository's bit-identity rests on:
// d + w(e), a strict < against the stamp-validated tentative distance,
// heap4 order.
//
// The sweep stops when dst is popped (reporting true; pass -1 for none),
// when every vertex of a non-nil targets set has been settled, when the
// next frontier key exceeds bound, or when the bound context is canceled
// (the caller tells that case apart by ws.ctxErr). Settled distances and
// parent edges are left in dist/parent under the current generation.
func (ws *Workspace) sweep(g *roadnet.Graph, seeds []Seed, rev bool, w Weight, dst roadnet.VertexID, targets []roadnet.VertexID, bound float64) bool {
	ws.ensure(g)
	ws.begin()
	gen := ws.gen
	remaining := -1 // no target set: never reaches 0
	if targets != nil {
		ws.tgtGen++
		if ws.tgtGen == 0 {
			clearU32(ws.tgtStamp)
			ws.tgtGen = 1
		}
		remaining = 0
		for _, t := range targets {
			if ws.tgtStamp[t] != ws.tgtGen {
				ws.tgtStamp[t] = ws.tgtGen
				remaining++
			}
		}
	}
	tgen := ws.tgtGen
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
	for !ws.heap.empty() && remaining != 0 {
		if ws.ctx != nil && ws.canceled() { // the nil test inlines; the poll does not
			return false
		}
		v, d := ws.heap.pop()
		if d > bound {
			break
		}
		if v == dst {
			return true
		}
		if remaining > 0 && ws.tgtStamp[v] == tgen {
			ws.tgtStamp[v] = tgen - 1
			remaining--
		}
		var arcs []roadnet.EdgeID
		var ends []roadnet.VertexID
		if rev {
			arcs, ends = g.InEdges(v), g.InNeighbors(v)
		} else {
			arcs, ends = g.OutEdges(v), g.OutNeighbors(v)
		}
		for i, eid := range arcs {
			to := ends[i]
			nd := d + w(g.Edge(eid))
			if ws.reach[to] != gen || nd < ws.dist[to] {
				ws.dist[to] = nd
				ws.reach[to] = gen
				ws.parent[to] = eid
				ws.heap.update(to, nd)
			}
		}
	}
	return false
}

// settled returns v's distance from the last sweep when it lies within
// bound, and +Inf otherwise. It reads the tentative distance, which is
// final for every vertex a caller asks about: a sweep without targets
// stops only at a key past bound, one with targets only once they are all
// settled.
func (ws *Workspace) settled(v roadnet.VertexID, bound float64) float64 {
	if ws.reach[v] == ws.gen && ws.dist[v] <= bound {
		return ws.dist[v]
	}
	return math.Inf(1)
}

// Dijkstra is the workspace-backed equivalent of the package-level Dijkstra.
func (ws *Workspace) Dijkstra(g *roadnet.Graph, src, dst roadnet.VertexID, w Weight) (Path, error) {
	if src == dst {
		return Path{Vertices: []roadnet.VertexID{src}}, nil
	}
	if ws.sweep(g, []Seed{{src, 0}}, false, w, dst, nil, math.Inf(1)) {
		return reconstruct(g, ws.parent, src, dst, ws.dist[dst]), nil
	}
	if ws.ctxErr != nil {
		return Path{}, ws.ctxErr
	}
	return Path{}, ErrNoPath
}

// DijkstraAll computes minimum costs from src to every vertex, writing into
// a freshly allocated result slice (the API contract of the package-level
// DijkstraAll).
func (ws *Workspace) DijkstraAll(g *roadnet.Graph, src roadnet.VertexID, w Weight) []float64 {
	out := make([]float64, g.NumVertices())
	ws.SeededDistances(g, []Seed{{src, 0}}, math.Inf(1), w, out)
	return out
}

// BoundedDistances computes exact minimum costs from src to every target
// under w, treating targets farther than bound as unreachable: out[j] is
// the cost to targets[j] when that cost is at most bound and +Inf
// otherwise. The search stops as soon as every target is settled or the
// frontier passes bound, so its cost is proportional to the bounded ball
// around src rather than the graph. It is the one-to-many primitive of the
// Dijkstra and ALT engines (CH has its own bucket-based ManyToMany).
func (ws *Workspace) BoundedDistances(g *roadnet.Graph, src roadnet.VertexID, targets []roadnet.VertexID, bound float64, w Weight, out []float64) {
	ws.bounded(g, src, false, targets, bound, w, out)
}

// bounded is BoundedDistances (rev false) and BoundedDistancesRev.
func (ws *Workspace) bounded(g *roadnet.Graph, from roadnet.VertexID, rev bool, targets []roadnet.VertexID, bound float64, w Weight, out []float64) {
	if len(targets) == 0 {
		return // a nil set would mean "no target stop" to sweep
	}
	ws.sweep(g, []Seed{{from, 0}}, rev, w, -1, targets, bound)
	for j, t := range targets {
		out[j] = ws.settled(t, bound)
	}
}

// dijkstraConstrained finds a minimum-cost path avoiding the workspace's
// current banned vertex/edge set: spurSearch without a limit, the path
// materialized.
func (ws *Workspace) dijkstraConstrained(g *roadnet.Graph, src, dst roadnet.VertexID) (Path, bool) {
	if reached, _ := ws.spurSearch(g, src, dst, math.Inf(1)); !reached {
		return Path{}, false
	}
	return reconstruct(g, ws.parent, src, dst, ws.dist[dst]), true
}

// spurSearch is the spur-path primitive of Yen's algorithm: a minimum-cost
// src→dst search avoiding the workspace's current banned vertex/edge set.
// It relies on the weight cache and goal heuristic filled by the enclosing
// query: the search is goal-directed A* toward the memoized goal, which
// settles far fewer vertices than a full Dijkstra while reaching dst at the
// same optimal cost, left in dist[dst] with the path in the parent edges.
//
// The search stops, reporting cut, as soon as the key it pops exceeds
// limit. The key is an admissible lower bound on the cost of any src→dst
// path through the popped vertex, so a cut search could only have found a
// path costing more than limit. A canceled bound context makes it report
// neither; the enclosing enumeration distinguishes cancellation via
// ws.ctxErr.
func (ws *Workspace) spurSearch(g *roadnet.Graph, src, dst roadnet.VertexID, limit float64) (reached, cut bool) {
	if ws.ctxErr != nil || ws.vertexBanned(src) || ws.vertexBanned(dst) {
		return false, false
	}
	ws.begin()
	gen := ws.gen
	ws.dist[src] = 0
	ws.reach[src] = gen
	ws.heap.push(src, 0)
	for !ws.heap.empty() {
		if ws.canceled() {
			return false, false
		}
		v, key := ws.heap.pop()
		if key > limit {
			return false, true
		}
		if v == dst {
			return true, false
		}
		d := ws.dist[v]
		outs := g.OutEdges(v)
		tos := g.OutNeighbors(v)
		for i, eid := range outs {
			if ws.edgeBanned(eid) {
				continue
			}
			to := tos[i]
			if ws.vertexBanned(to) {
				continue
			}
			nd := d + ws.wts[eid]
			if ws.reach[to] != gen || nd < ws.dist[to] {
				ws.dist[to] = nd
				ws.reach[to] = gen
				ws.parent[to] = eid
				ws.heap.update(to, nd+ws.heurTo(g, to))
			}
		}
	}
	return false, false
}

// --- Indexed 4-ary min-heap with decrease-key ---

type pqItem struct {
	key float64
	v   roadnet.VertexID
}

// heap4 is an indexed 4-ary min-heap keyed by float64. The position index
// enables decrease-key, so each vertex appears at most once and the lazy
// "done" re-check of a binary heap with duplicate entries disappears. 4-ary
// layout halves the tree depth and keeps sift-down children in one or two
// cache lines.
type heap4 struct {
	it   []pqItem
	pos  []int32
	pgen []uint32 // pos valid iff pgen[v] == gen
	gen  uint32
}

func (h *heap4) ensure(n int) {
	if len(h.pos) < n {
		h.pos = make([]int32, n)
		h.pgen = make([]uint32, n)
		h.gen = 0
	}
}

func (h *heap4) reset() {
	h.it = h.it[:0]
	h.gen++
	if h.gen == 0 {
		clearU32(h.pgen)
		h.gen = 1
	}
}

func (h *heap4) empty() bool     { return len(h.it) == 0 }
func (h *heap4) topKey() float64 { return h.it[0].key }

// push inserts v, assuming it is not present.
func (h *heap4) push(v roadnet.VertexID, key float64) {
	h.it = append(h.it, pqItem{key: key, v: v})
	h.pgen[v] = h.gen
	h.up(len(h.it) - 1)
}

// update inserts v or decreases its key; larger keys are ignored.
func (h *heap4) update(v roadnet.VertexID, key float64) {
	if h.pgen[v] == h.gen {
		i := int(h.pos[v])
		if key >= h.it[i].key {
			return
		}
		h.it[i].key = key
		h.up(i)
		return
	}
	h.push(v, key)
}

func (h *heap4) pop() (roadnet.VertexID, float64) {
	top := h.it[0]
	last := len(h.it) - 1
	h.it[0] = h.it[last]
	h.it = h.it[:last]
	if last > 0 {
		h.pos[h.it[0].v] = 0
		h.down(0)
	}
	h.pgen[top.v] = h.gen - 1 // mark absent (any stamp != gen)
	return top.v, top.key
}

func (h *heap4) up(i int) {
	it := h.it[i]
	for i > 0 {
		p := (i - 1) >> 2
		if h.it[p].key <= it.key {
			break
		}
		h.it[i] = h.it[p]
		h.pos[h.it[i].v] = int32(i)
		i = p
	}
	h.it[i] = it
	h.pos[it.v] = int32(i)
}

func (h *heap4) down(i int) {
	n := len(h.it)
	it := h.it[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h.it[j].key < h.it[best].key {
				best = j
			}
		}
		if h.it[best].key >= it.key {
			break
		}
		h.it[i] = h.it[best]
		h.pos[h.it[i].v] = int32(i)
		i = best
	}
	h.it[i] = it
	h.pos[it.v] = int32(i)
}
