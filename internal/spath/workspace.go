package spath

import (
	"context"
	"math"
	"sync"

	"pathrank/internal/roadnet"
)

// Workspace holds the per-query state of a shortest-path search — distance
// and parent arrays, settled marks and the priority queue — so that repeated
// queries on the same graph reuse memory instead of allocating O(n) fresh
// state each time. Visited marks are generation-stamped: starting a new
// query bumps a counter instead of clearing the arrays, so query setup is
// O(1) regardless of graph size.
//
// A Workspace runs two relaxation loops. sweep is every plain search —
// point-to-point, one-to-all, bounded one-to-many and seeded multi-source,
// forward or reverse, and the pruned pair of sweeps of a shard's corridor
// (Corridor) — and also builds a Yen enumeration's reverse shortest-path
// tree to dst (buildTree), which then moves to its own labels so the spur
// searches can reuse the search ones. spurSearch is Yen's spur
// search: goal-directed, keyed by distance plus the tree's exact potential
// and stopped at the first vertex whose tree path avoids the bans. It stays
// separate because it is the hot loop of candidate generation and differs
// from a plain search on every relaxed edge: it skips banned vertices and
// edges and adds a potential to the key.
//
// A Workspace is not safe for concurrent use; acquire one per goroutine with
// GetWorkspace. Yen's TopK issues hundreds of searches per candidate set
// through a single Workspace, which is where the reuse pays off most.
type Workspace struct {
	// Search state, indexed by vertex; a reverse sweep uses it too.
	labels

	// tree is the reverse shortest-path tree to the enumeration's dst
	// (buildTree): tree.lab[v].dist is T(v), the cost from v to dst, and
	// tree.lab[v].parent v's next edge toward dst. treeR is T(src), the
	// shortest-path cost, where the sweep stopped.
	tree  labels
	treeR float64
	// blindPops counts, since the workspace was made, the spur-search pops
	// of vertices outside the tree's ball (T(v) > T(src) or unreached),
	// where the potential is the constant treeR; EnumStats.BlindPops reads
	// it.
	blindPops int

	heap heap4

	// wts is the weight of every edge for the current query, so the
	// relaxation loop pays one array load instead of an indirect call with
	// an Edge-struct argument. It is either own's (fillWeights) or a
	// caller's immutable shared table (useWeights, a WeightTable); only own
	// is ever written, so a pooled workspace that last borrowed a shared
	// table cannot clobber it.
	wts []float64
	own []float64

	// Ban stamps for constrained (Yen spur) queries.
	banV   []uint32
	banE   []uint32
	banGen uint32

	// The clean memo of the current ban set: cleanOK[v] tells whether v's
	// tree path to dst avoids every banned vertex and edge, valid iff
	// cleanAt[v] == banGen. walk is clean's scratch.
	cleanAt []uint32
	cleanOK []bool
	walk    []roadnet.VertexID

	// Yen state, reused by every enumeration on the workspace: the vertex
	// the last spur search stopped at, and the arena holding the spur edges
	// of every pending candidate (yenCand.lo:hi) with the spur being built
	// at its end.
	meet roadnet.VertexID
	spur []roadnet.EdgeID

	// Target stamps for bounded multi-target searches.
	tgtStamp []uint32
	tgtGen   uint32

	// Cancellation: the bound context, the error a poll latched, and the
	// pop counter that amortizes the polls (see bindContext).
	ctx     context.Context
	ctxErr  error
	ctxTick uint32

	// Corridor's answer, reused across calls.
	corrV []roadnet.VertexID
	corrE []roadnet.EdgeID
}

// labels are a search's tentative distances and parent edges, one label
// per vertex, so a relaxation reads and writes one 16-byte slot. lab[v] is
// valid iff lab[v].reach == gen. Each set carries its own generation, so
// swapping two sets swaps their stamps with them.
type labels struct {
	lab []label
	gen uint32
}

// label is one vertex's entry of a labels set.
type label struct {
	dist   float64
	parent roadnet.EdgeID
	reach  uint32
}

// fit grows the set to n vertices.
func (l *labels) fit(n int) {
	if len(l.lab) < n {
		l.lab = make([]label, n)
		l.gen = 0
	}
}

// ctxCheckEvery is the heap-pop interval between context polls; a power of
// two so the check compiles to a mask test. 1024 pops is microseconds of
// search work, far below any useful request deadline.
const ctxCheckEvery = 1024

// bindContext attaches ctx for subsequent searches. A nil context, or one
// that can never be canceled (context.Background()), disables polling
// entirely. Otherwise ctx is polled every ctxCheckEvery heap pops across
// all searches bound to it; once a poll observes cancellation, ctxErr
// latches the context's error and every subsequent search on the
// workspace fails immediately until the next bindContext. The amortized
// poll keeps the per-pop cost to a counter increment and a mask test, so
// hot loops stay within the zero-alloc and <2% time budget when ctx is
// never canceled. One eager poll catches already-expired contexts even
// when the query would finish under the amortized poll interval.
func (ws *Workspace) bindContext(ctx context.Context) {
	if ctx != nil && ctx.Done() == nil {
		ctx = nil
	}
	ws.ctx = ctx
	ws.ctxErr = nil
	ws.ctxTick = 0
	if ctx != nil {
		ws.ctxErr = ctx.Err()
	}
}

// canceled reports whether the bound context has been canceled, polling it
// at most once every ctxCheckEvery calls. The tick counter deliberately
// persists across the many short spur searches of one Yen enumeration, so
// the poll interval is global to the query rather than per search.
func (ws *Workspace) canceled() bool {
	if ws.ctx == nil {
		return false
	}
	if ws.ctxErr != nil {
		return true
	}
	ws.ctxTick++
	if ws.ctxTick&(ctxCheckEvery-1) != 0 {
		return false
	}
	if err := ws.ctx.Err(); err != nil {
		ws.ctxErr = err
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
	// Retain neither shared tables nor request contexts in the pool.
	ws.wts = nil
	ws.ctx, ws.ctxErr = nil, nil
	wsPool.Put(ws)
}

// ensure grows the vertex-indexed arrays to cover g.
func (ws *Workspace) ensure(g *roadnet.Graph) {
	n := g.NumVertices()
	if len(ws.lab) < n {
		ws.labels.fit(n)
		ws.tree.fit(n)
		ws.banV = make([]uint32, n)
		ws.cleanAt = make([]uint32, n)
		ws.cleanOK = make([]bool, n)
		ws.tgtStamp = make([]uint32, n)
		ws.tgtGen = 0
		// banV, banE and cleanAt share banGen: resetting it invalidates
		// stamps in the fresh arrays, so the retained banE must be cleared
		// too or its stale stamps would read as banned once the counter
		// climbs back.
		clearU32(ws.banE)
		ws.banGen = 0
	}
	ws.heap.ensure(n)
}

// begin starts a new query generation: O(1) instead of clearing the arrays.
func (ws *Workspace) begin() {
	ws.gen++
	if ws.gen == 0 { // stamp wrap: clear once every 2^32 queries
		for i := range ws.lab {
			ws.lab[i].reach = 0
		}
		ws.gen = 1
	}
	ws.heap.reset()
}

func clearU32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// WeightTable evaluates w once per edge of g: the table candidate
// generation runs on (DiversifiedTopKStatsCtx), indexed by edge ID. Build
// it once per (graph, metric) and share it, read-only, across queries.
func WeightTable(g *roadnet.Graph, w Weight) []float64 {
	return weightsOf(nil, g, w)
}

// weightsOf evaluates w once per edge of g, into buf when it has room.
func weightsOf(buf []float64, g *roadnet.Graph, w Weight) []float64 {
	m := g.NumEdges()
	if cap(buf) < m {
		buf = make([]float64, m)
	}
	buf = buf[:m]
	for i := range buf {
		buf[i] = w(g.Edge(roadnet.EdgeID(i)))
	}
	return buf
}

// fillWeights points the cached-weight searches at w, evaluated into the
// workspace's own buffer.
func (ws *Workspace) fillWeights(g *roadnet.Graph, w Weight) {
	ws.own = weightsOf(ws.own, g, w)
	ws.wts = ws.own
}

// useWeights points the cached-weight searches at a prebuilt table.
func (ws *Workspace) useWeights(wts []float64) {
	ws.wts = wts
}

// --- Ban stamps (Yen spur queries) ---

// resetBans starts a fresh banned set; the edge-stamp array is grown lazily
// because it is indexed by edge, not vertex.
func (ws *Workspace) resetBans(g *roadnet.Graph) {
	if len(ws.banE) < g.NumEdges() {
		ws.banE = make([]uint32, g.NumEdges())
		// Same invariant as ensure: a banGen reset must invalidate the
		// stamps in the retained banV and cleanAt as well.
		clearU32(ws.banV)
		clearU32(ws.cleanAt)
		ws.banGen = 0
	}
	ws.banGen++
	if ws.banGen == 0 {
		clearU32(ws.banV)
		clearU32(ws.banE)
		clearU32(ws.cleanAt)
		ws.banGen = 1
	}
}

func (ws *Workspace) banVertex(v roadnet.VertexID) { ws.banV[v] = ws.banGen }
func (ws *Workspace) banEdge(e roadnet.EdgeID)     { ws.banE[e] = ws.banGen }

func (ws *Workspace) vertexBanned(v roadnet.VertexID) bool { return ws.banV[v] == ws.banGen }
func (ws *Workspace) edgeBanned(e roadnet.EdgeID) bool     { return ws.banE[e] == ws.banGen }

// --- Searches ---

// sweep is the one relaxation loop of every plain search: Dijkstra from
// seeds, over out-arcs or, when rev, over in-arcs (so dist is then the cost
// from a vertex to the nearest seed). Seeds above bound or at +Inf are
// skipped; duplicate seeds keep the cheapest. The weight source is picked
// once per sweep: a non-nil w is evaluated per relaxed edge, and a nil w
// reads the workspace's weight table. A plain search passes its w — it is
// bounded or stops early, touches a fraction of the edges, and filling a
// table first would cost more than it saves. Yen's tree sweep (buildTree)
// passes nil: its enumeration has filled or borrowed the table already, and
// one array load replaces an indirect call with an Edge-struct argument.
// Both sources hold the same bits for an edge, so the choice moves no
// distance. The relaxation is the one rule the repository's bit-identity
// rests on: d + w(e), a strict < against the stamp-validated tentative
// distance, heap4 order.
//
// The sweep stops when dst is popped (reporting true; pass -1 for none),
// when every vertex of a non-nil targets set has been settled, when the
// next frontier key exceeds bound, or when the bound context is canceled
// (the caller tells that case apart by ws.ctxErr). Settled distances and
// parent edges are left in lab under the current generation. A non-nil
// expand is asked about every settled vertex within bound, and one it
// refuses is settled but not relaxed from; only Corridor passes one.
func (ws *Workspace) sweep(g *roadnet.Graph, seeds []Seed, rev bool, w Weight, dst roadnet.VertexID, targets []roadnet.VertexID, bound float64, expand func(v roadnet.VertexID, d float64) bool) bool {
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
	// Target bookkeeping and expand cost plain and tree sweeps one test a pop.
	perPop := targets != nil || expand != nil
	var wts []float64 // nil: w per edge
	if w == nil {
		wts = ws.wts
	}
	lab := ws.lab
	for _, s := range seeds {
		if s.Dist > bound || math.IsInf(s.Dist, 1) {
			continue
		}
		if l := &lab[s.V]; l.reach != gen || s.Dist < l.dist {
			l.dist, l.reach = s.Dist, gen
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
		if perPop {
			if remaining > 0 && ws.tgtStamp[v] == tgen {
				ws.tgtStamp[v] = tgen - 1
				remaining--
			}
			if expand != nil && !expand(v, d) {
				continue
			}
		}
		var arcs []roadnet.EdgeID
		var ends []roadnet.VertexID
		if rev {
			arcs, ends = g.InEdges(v), g.InNeighbors(v)
		} else {
			arcs, ends = g.OutEdges(v), g.OutNeighbors(v)
		}
		for i, eid := range arcs {
			var c float64
			if wts != nil {
				c = wts[eid]
			} else {
				c = w(g.Edge(eid))
			}
			nd := d + c
			if l := &lab[ends[i]]; l.reach != gen || nd < l.dist {
				*l = label{dist: nd, parent: eid, reach: gen}
				ws.heap.update(ends[i], nd)
			}
		}
	}
	return false
}

// Pops is the number of heap pops of every search the workspace has run
// since it was made. Each pop settles a vertex, except the one per sweep
// that ends it past its bound; benchmarks report pops per operation.
func (ws *Workspace) Pops() int { return ws.heap.pops }

// settled returns v's distance from the last sweep when it lies within
// bound, and +Inf otherwise. It reads the tentative distance, which is
// final for every vertex a caller asks about: a sweep without targets
// stops only at a key past bound, one with targets only once they are all
// settled.
func (ws *Workspace) settled(v roadnet.VertexID, bound float64) float64 {
	if l := ws.lab[v]; l.reach == ws.gen && l.dist <= bound {
		return l.dist
	}
	return math.Inf(1)
}

// Dijkstra is the workspace-backed equivalent of the package-level Dijkstra.
func (ws *Workspace) Dijkstra(g *roadnet.Graph, src, dst roadnet.VertexID, w Weight) (Path, error) {
	if src == dst {
		return Path{Vertices: []roadnet.VertexID{src}}, nil
	}
	if ws.sweep(g, []Seed{{src, 0}}, false, w, dst, nil, math.Inf(1), nil) {
		return reconstruct(g, ws.lab, src, dst, ws.lab[dst].dist), nil
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
	ws.SeededDistances(g, []Seed{{src, 0}}, false, math.Inf(1), w, out)
	return out
}

// BoundedDistances computes exact minimum costs from src to every target
// under w, treating targets farther than bound as unreachable: out[j] is
// the cost to targets[j] when that cost is at most bound and +Inf
// otherwise. The search stops as soon as every target is settled or the
// frontier passes bound, so its cost is proportional to the bounded ball
// around src rather than the graph. Map matching's transitions and the
// sharded tier's boundary tables are built from it.
func (ws *Workspace) BoundedDistances(g *roadnet.Graph, src roadnet.VertexID, targets []roadnet.VertexID, bound float64, w Weight, out []float64) {
	ws.bounded(g, src, false, targets, bound, w, out)
}

// bounded is BoundedDistances (rev false) and BoundaryDistances; a nil w
// reads the workspace's weight table.
func (ws *Workspace) bounded(g *roadnet.Graph, from roadnet.VertexID, rev bool, targets []roadnet.VertexID, bound float64, w Weight, out []float64) {
	if len(targets) == 0 {
		return // a nil set would mean "no target stop" to sweep
	}
	ws.sweep(g, []Seed{{from, 0}}, rev, w, -1, targets, bound, nil)
	for j, t := range targets {
		out[j] = ws.settled(t, bound)
	}
}

// buildTree sweeps from dst over in-arcs, on the workspace's weight table,
// until src is settled and keeps the result as the reverse shortest-path
// tree T of a Yen enumeration, with treeR = T(src). A vertex whose tree
// label is current and at most treeR has its exact cost to dst and a tree
// edge toward it: the sweep settled every vertex cheaper than src, and a
// label of exactly treeR was set from a settled vertex. It reports false
// when src is unreachable or the bound context is canceled (ws.ctxErr tells
// them apart).
func (ws *Workspace) buildTree(g *roadnet.Graph, src, dst roadnet.VertexID) bool {
	reached := ws.sweep(g, []Seed{{dst, 0}}, true, nil, src, nil, math.Inf(1), nil)
	ws.labels, ws.tree = ws.tree, ws.labels
	ws.treeR = ws.tree.lab[src].dist
	return reached
}

// potential is spurSearch's A* potential, the tree's: T(v) inside its ball
// and treeR outside it. It is consistent, and admissible under any bans,
// because bans only lengthen paths and every vertex outside the ball is at
// least treeR from dst.
func (ws *Workspace) potential(v roadnet.VertexID) float64 {
	if t := ws.tree.lab[v]; t.reach == ws.tree.gen && t.dist < ws.treeR {
		return t.dist
	}
	return ws.treeR
}

// clean reports whether v's tree path to dst touches no banned vertex or
// edge: clean(v) = !banV(v) && !banE(next(v)) && clean(head(next(v))),
// false outside the ball. The answer is memoized for the current ban set,
// for v and every vertex the walk passed.
func (ws *Workspace) clean(g *roadnet.Graph, v, dst roadnet.VertexID) bool {
	walk := ws.walk[:0]
	ok := false
	for {
		if ws.cleanAt[v] == ws.banGen {
			ok = ws.cleanOK[v]
			break
		}
		walk = append(walk, v)
		t := ws.tree.lab[v]
		if ws.vertexBanned(v) || t.reach != ws.tree.gen || t.dist > ws.treeR {
			break
		}
		if v == dst {
			ok = true
			break
		}
		if ws.edgeBanned(t.parent) {
			break
		}
		v = g.Edge(t.parent).To
	}
	for _, u := range walk {
		ws.cleanAt[u] = ws.banGen
		ws.cleanOK[u] = ok
	}
	ws.walk = walk
	return ok
}

// appendTree appends to edges v's tree path to dst.
func (ws *Workspace) appendTree(g *roadnet.Graph, edges []roadnet.EdgeID, v, dst roadnet.VertexID) []roadnet.EdgeID {
	for ; v != dst; v = g.Edge(ws.tree.lab[v].parent).To {
		edges = append(edges, ws.tree.lab[v].parent)
	}
	return edges
}

// spurSearch is Yen's spur search on the enumeration's tree, over the
// workspace's weight table and avoiding its current banned vertex/edge set:
// A* from src keyed by distance plus the tree's consistent potential, so
// keys never decrease. It stops at the first popped vertex u whose tree
// path is clean, leaving it in ws.meet. The spur is the search's parent
// edges from src to u followed by u's tree path. It is optimal: its cost is
// u's key, and no later key is smaller — dst itself is clean. It is
// loopless: every ancestor of u in the search tree was popped earlier, and
// one on u's tree path would have been clean first.
//
// The search stops, reporting cut, as soon as the key it pops exceeds
// limit: the key is a lower bound on the cost of any src→dst path through
// the popped vertex, so a cut search could only have found a path costing
// more than limit. A canceled bound context makes it report neither; the
// enclosing enumeration distinguishes cancellation via ws.ctxErr.
func (ws *Workspace) spurSearch(g *roadnet.Graph, src, dst roadnet.VertexID, limit float64) (reached, cut bool) {
	if ws.ctxErr != nil || ws.vertexBanned(src) || ws.vertexBanned(dst) {
		return false, false
	}
	ws.begin()
	gen := ws.gen
	lab := ws.lab
	lab[src] = label{reach: gen}
	ws.heap.push(src, 0)
	for !ws.heap.empty() {
		if ws.canceled() {
			return false, false
		}
		v, key := ws.heap.pop()
		if key > limit {
			return false, true
		}
		if t := ws.tree.lab[v]; t.reach != ws.tree.gen || t.dist > ws.treeR {
			ws.blindPops++
		}
		if ws.clean(g, v, dst) {
			ws.meet = v
			return true, false
		}
		d := lab[v].dist
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
			if l := &lab[to]; l.reach != gen || nd < l.dist {
				*l = label{dist: nd, parent: eid, reach: gen}
				ws.heap.update(to, nd+ws.potential(to))
			}
		}
	}
	return false, false
}

// --- Indexed 4-ary min-heap with decrease-key ---

// pqItem is a heap entry: the pushed key, its ord, and the vertex.
type pqItem struct {
	k   uint64 // ord(key), what the sifts compare
	key float64
	v   roadnet.VertexID
}

// heapSlot is a vertex's place in the heap: it[pos] holds v iff gen is the
// heap's current generation.
type heapSlot struct {
	pos int32
	gen uint32
}

// heap4 is an indexed 4-ary min-heap keyed by float64. The position index
// enables decrease-key, so each vertex appears at most once and the lazy
// "done" re-check of a binary heap with duplicate entries disappears. 4-ary
// layout halves the tree depth and keeps a node's children adjacent.
//
// Keys are compared as ord(key), integers in the keys' float order, computed
// once per push or decrease and stored beside the key, so the compiler can
// pick down's child with conditional moves instead of mispredicted
// branches; it does not for float compares. For every key but NaN, which no
// search pushes, ord(a) < ord(b) exactly when a < b, so the heap pops in the
// order a float-compare heap with the same sift rules would: down takes the
// leftmost least child and stops on >=, up stops on <=, and update ignores
// a key >= the present one. pop returns the pushed float's bits unchanged.
type heap4 struct {
	it   []pqItem
	slot []heapSlot // indexed by vertex
	gen  uint32
	pops int // every pop since the heap was made; EnumStats.Pops reads it
}

// ord maps a float64 to a uint64 of the same order: positives get the sign
// bit set, negatives have every bit flipped, and the +1 on negatives makes
// −0 the same key as +0, as float comparison treats them.
func ord(f float64) uint64 {
	b := math.Float64bits(f)
	neg := uint64(int64(b) >> 63) // all ones for a negative, else 0
	return (b ^ (neg | 1<<63)) - neg
}

func (h *heap4) ensure(n int) {
	if len(h.slot) < n {
		h.slot = make([]heapSlot, n)
		h.gen = 0
	}
}

func (h *heap4) reset() {
	h.it = h.it[:0]
	h.gen++
	if h.gen == 0 {
		for i := range h.slot {
			h.slot[i].gen = 0
		}
		h.gen = 1
	}
}

func (h *heap4) empty() bool { return len(h.it) == 0 }

// push inserts v, assuming it is not present.
func (h *heap4) push(v roadnet.VertexID, key float64) {
	h.it = append(h.it, pqItem{k: ord(key), key: key, v: v})
	h.slot[v].gen = h.gen
	h.up(len(h.it) - 1)
}

// update inserts v or decreases its key; larger keys are ignored.
func (h *heap4) update(v roadnet.VertexID, key float64) {
	if s := h.slot[v]; s.gen == h.gen {
		i := int(s.pos)
		k := ord(key)
		if k >= h.it[i].k {
			return
		}
		h.it[i].k, h.it[i].key = k, key
		h.up(i)
		return
	}
	h.push(v, key)
}

func (h *heap4) pop() (roadnet.VertexID, float64) {
	h.pops++
	top := h.it[0]
	last := len(h.it) - 1
	h.it[0] = h.it[last]
	h.it = h.it[:last]
	if last > 0 {
		h.down(0)
	}
	h.slot[top.v].gen = h.gen - 1 // mark absent (any stamp != gen)
	return top.v, top.key
}

func (h *heap4) up(i int) {
	it := h.it[i]
	for i > 0 {
		p := (i - 1) >> 2
		if h.it[p].k <= it.k {
			break
		}
		h.it[i] = h.it[p]
		h.slot[h.it[i].v].pos = int32(i)
		i = p
	}
	h.it[i] = it
	h.slot[it.v].pos = int32(i)
}

// down sifts it[i] toward the leaves. A full set of four children is
// decided as a tournament, (c0, c1) and (c2, c3) and then the winners,
// each match keeping the left side on a tie: the leftmost least child, as
// a left-to-right scan with strict < finds it. The tournament is written
// as arithmetic on the comparisons (b2i, min) so that it compiles to
// conditional moves.
func (h *heap4) down(i int) {
	it := h.it
	n := len(it)
	x := it[i]
	kx := x.k
	for {
		c := i<<2 + 1
		var best int
		var kb uint64
		if c+3 < n {
			q := it[c : c+4 : c+4]
			k0, k1, k2, k3 := q[0].k, q[1].k, q[2].k, q[3].k
			s01, k01 := b2i(k1 < k0), min(k0, k1)
			s23, k23 := b2i(k3 < k2), min(k2, k3)
			right := -b2i(k23 < k01) // all ones when (c2, c3) wins
			best, kb = c+(s01^((s01^(2+s23))&right)), min(k01, k23)
		} else if c < n {
			best, kb = c, it[c].k
			for j := c + 1; j < n; j++ {
				if k := it[j].k; k < kb {
					best, kb = j, k
				}
			}
		} else {
			break
		}
		if kb >= kx {
			break
		}
		it[i] = it[best]
		h.slot[it[i].v].pos = int32(i)
		i = best
	}
	it[i] = x
	h.slot[x.v].pos = int32(i)
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}
