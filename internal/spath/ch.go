package spath

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"pathrank/internal/roadnet"
)

// ContractionHierarchy is a preprocessing-based speedup for shortest-path
// queries (Geisberger et al. 2008): vertices are contracted in importance
// order, inserting shortcut edges that preserve distances, and queries run
// a bidirectional upward search in the augmented graph. It backs the
// "advanced routing" component for interactive candidate generation on
// larger networks.
//
// The hierarchy is built for one Weight function; build one hierarchy per
// metric of interest. A built hierarchy is immutable and safe for
// concurrent queries: per-query state lives in a pooled chWorkspace, so
// Query and ManyToMany allocate only their results.
type ContractionHierarchy struct {
	g     *roadnet.Graph
	order []int32 // order[v] = contraction rank of v (higher = more important)

	// Augmented arc set. Shortcuts store the contracted middle vertex for
	// path unpacking; original edges store mid = -1 and the edge ID.
	arcFrom, arcTo []int32
	arcWeight      []float64
	arcMid         []int32
	arcEdge        []roadnet.EdgeID

	// CSR adjacency over the augmented arcs: upward arcs (rank increases)
	// grouped by tail for the forward search, downward arcs (rank
	// decreases) grouped by head for the backward search.
	upStart, upArcs     []int32
	downStart, downArcs []int32

	// Unpacking index: idxKeys holds every distinct from<<32|uint32(to) key
	// ascending, idxVals[i] the minimum-weight arc for idxKeys[i].
	idxKeys []int64
	idxVals []int32
}

// chArc is a temporary arc during construction.
type chArc struct {
	from, to int32
	weight   float64
	mid      int32
	edge     roadnet.EdgeID
}

// BuildCH preprocesses g under w. Vertices are contracted in edge-difference
// order from a lazy-update queue; contracting v adds a shortcut s→t for
// every in-arc s→v and out-arc v→t that no witness path avoiding v, found
// by a Dijkstra capped at 60 settled vertices, matches.
//
// The witness searches of one source share one pop sequence: a search from
// s that avoids v pops the same vertices whatever its target, and each
// target's verdict depends only on the prefix up to its own stopping rule.
// So one search per in-arc prices every out-arc. A shortcut s→t_j lands in
// out[s], where the next target's search would relax it, so contraction
// restarts the source's search at target j+1 after each insertion. Arcs to
// a contracted vertex are deleted from the working lists, which keeps the
// remaining arcs in their relative order. The hierarchy is therefore
// exactly the one per-pair searches over filtered lists would build.
func BuildCH(g *roadnet.Graph, w Weight) *ContractionHierarchy {
	n := g.NumVertices()
	b := &chBuilder{
		out:   make([][]dynArc, n),
		in:    make([][]dynArc, n),
		dist:  make([]float64, n),
		stamp: make([]uint32, n),
	}
	arcs := make([]chArc, 0, 2*g.NumEdges())
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		wt := w(e)
		b.out[e.From] = append(b.out[e.From], dynArc{other: int32(e.To), weight: wt, mid: -1, edge: e.ID})
		b.in[e.To] = append(b.in[e.To], dynArc{other: int32(e.From), weight: wt, mid: -1, edge: e.ID})
	}
	// Original edges are the first arcs, grouped by tail; shortcuts follow
	// in insertion order.
	for v := range b.out {
		for _, a := range b.out[v] {
			arcs = append(arcs, chArc{from: int32(v), to: a.other, weight: a.weight, mid: -1, edge: a.edge})
		}
	}

	// Lazy priority queue. The full re-sort on a stale top is what fixes
	// the contraction order (a heap would break ties differently), and at
	// a few percent of the build it is not worth replacing.
	type pqCH struct {
		v    int32
		prio int
	}
	pq := make([]pqCH, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, pqCH{v: int32(v), prio: b.priority(int32(v))})
	}
	byPrio := func(a, b int) bool { return pq[a].prio < pq[b].prio }
	sort.Slice(pq, byPrio)

	order := make([]int32, n)
	for rank := int32(0); len(pq) > 0; {
		// Lazy update: recompute the top's priority; if it is no longer
		// minimal, re-sort and look again.
		v := pq[0].v
		if np := b.priority(v); len(pq) > 1 && np > pq[1].prio {
			pq[0].prio = np
			sort.Slice(pq, byPrio)
			continue
		}
		pq = pq[1:]
		arcs = b.contract(v, arcs)
		order[v] = rank
		rank++
	}
	return newCH(g, order, arcs)
}

// dynArc is an arc of BuildCH's working adjacency, stored at one end and
// naming the other.
type dynArc struct {
	other  int32
	weight float64
	mid    int32
	edge   roadnet.EdgeID
}

// chTarget is one out-arc's witness query: is there a path to t avoiding
// the contracted vertex that costs at most bound?
type chTarget struct {
	t       int32
	bound   float64
	done    bool // the search has passed this target's stopping rule
	witness bool // verdict: a path within bound exists
}

// chBuilder is BuildCH's working state: the adjacency over uncontracted
// vertices, and one witness search's generation-stamped distances and heap,
// reused by every search of the build.
type chBuilder struct {
	out, in [][]dynArc
	dist    []float64
	stamp   []uint32
	gen     uint32
	heap    vertexHeapCH
	targets []chTarget
}

// targetsOf lists the witness queries of in-arc ia into v: one per out-arc
// of v not leading back to ia's tail, in out-arc order.
func (b *chBuilder) targetsOf(v int32, ia dynArc) []chTarget {
	tg := b.targets[:0]
	for _, oa := range b.out[v] {
		if oa.other != ia.other {
			tg = append(tg, chTarget{t: oa.other, bound: ia.weight + oa.weight})
		}
	}
	b.targets = tg
	return tg
}

// witness runs one Dijkstra from s over the working graph minus v and
// settles every target's verdict. A target is decided by the first
// non-stale pop that is the target (its distance within bound) or lies
// beyond its bound (no witness); when 60 vertices are settled or the heap
// runs dry first, its tentative distance decides.
func (b *chBuilder) witness(s, v int32, tg []chTarget) {
	const maxSettle = 60
	b.gen++
	if b.gen == 0 { // stamp wrap
		clearU32(b.stamp)
		b.gen = 1
	}
	gen := b.gen
	b.dist[s], b.stamp[s] = 0, gen
	h := &b.heap
	h.a = h.a[:0]
	h.push(chItem{v: s})
	for i := range tg {
		tg[i].done = false
	}
	open := len(tg)
	for settled := 0; open > 0 && h.len() > 0 && settled < maxSettle; {
		it := h.pop()
		if it.dist > b.dist[it.v] {
			continue
		}
		for i := range tg {
			t := &tg[i]
			if t.done {
				continue
			}
			if it.v == t.t {
				t.done, t.witness = true, it.dist <= t.bound
				open--
			} else if it.dist > t.bound {
				t.done, t.witness = true, false
				open--
			}
		}
		if open == 0 {
			return
		}
		settled++
		for _, a := range b.out[it.v] {
			if a.other == v {
				continue
			}
			nd := it.dist + a.weight
			if b.stamp[a.other] != gen || nd < b.dist[a.other] {
				b.dist[a.other], b.stamp[a.other] = nd, gen
				h.push(chItem{v: a.other, dist: nd})
			}
		}
	}
	for i := range tg {
		if t := &tg[i]; !t.done {
			t.witness = b.stamp[t.t] == gen && b.dist[t.t] <= t.bound
		}
	}
}

// priority is v's edge difference: twice the shortcuts contracting v now
// would add, minus its degree.
func (b *chBuilder) priority(v int32) int {
	added := 0
	for _, ia := range b.in[v] {
		tg := b.targetsOf(v, ia)
		b.witness(ia.other, v, tg)
		for _, t := range tg {
			if !t.witness {
				added++
			}
		}
	}
	return 2*added - len(b.out[v]) - len(b.in[v])
}

// contract inserts v's shortcuts, appending each to arcs, and drops v from
// the working graph. After an insertion the source's search restarts at
// the next target, so it sees the new arc as a per-pair search would.
func (b *chBuilder) contract(v int32, arcs []chArc) []chArc {
	for _, ia := range b.in[v] {
		s := ia.other
		for tg := b.targetsOf(v, ia); len(tg) > 0; {
			b.witness(s, v, tg)
			j := slices.IndexFunc(tg, func(t chTarget) bool { return !t.witness })
			if j < 0 {
				break
			}
			t := tg[j]
			b.out[s] = append(b.out[s], dynArc{other: t.t, weight: t.bound, mid: v})
			b.in[t.t] = append(b.in[t.t], dynArc{other: s, weight: t.bound, mid: v})
			arcs = append(arcs, chArc{from: s, to: t.t, weight: t.bound, mid: v})
			tg = tg[j+1:]
		}
	}
	toV := func(a dynArc) bool { return a.other == v }
	for _, ia := range b.in[v] {
		b.out[ia.other] = slices.DeleteFunc(b.out[ia.other], toV)
	}
	for _, oa := range b.out[v] {
		b.in[oa.other] = slices.DeleteFunc(b.in[oa.other], toV)
	}
	return arcs
}

func arcKey(from, to int32) int64 { return int64(from)<<32 | int64(uint32(to)) }

// newCH lays the augmented arc set out as the flat arrays every query
// runs on (and CHData persists verbatim): the arc columns, the CSR upward
// (rank increases, grouped by tail) and downward (rank decreases, grouped
// by head) adjacency, and the sorted unpacking index.
func newCH(g *roadnet.Graph, order []int32, arcs []chArc) *ContractionHierarchy {
	n, m := g.NumVertices(), len(arcs)
	ch := &ContractionHierarchy{
		g:         g,
		order:     order,
		arcFrom:   make([]int32, m),
		arcTo:     make([]int32, m),
		arcWeight: make([]float64, m),
		arcMid:    make([]int32, m),
		arcEdge:   make([]roadnet.EdgeID, m),
		upStart:   make([]int32, n+1),
		downStart: make([]int32, n+1),
		idxKeys:   make([]int64, 0, m),
		idxVals:   make([]int32, 0, m),
	}
	for i, a := range arcs {
		ch.arcFrom[i] = a.from
		ch.arcTo[i] = a.to
		ch.arcWeight[i] = a.weight
		ch.arcMid[i] = a.mid
		ch.arcEdge[i] = a.edge
		if order[a.to] > order[a.from] {
			ch.upStart[a.from+1]++
		} else {
			ch.downStart[a.to+1]++
		}
	}
	for v := 0; v < n; v++ {
		ch.upStart[v+1] += ch.upStart[v]
		ch.downStart[v+1] += ch.downStart[v]
	}
	ch.upArcs = make([]int32, ch.upStart[n])
	ch.downArcs = make([]int32, ch.downStart[n])
	upPos := append([]int32(nil), ch.upStart[:n]...)
	downPos := append([]int32(nil), ch.downStart[:n]...)
	for i, a := range arcs {
		if order[a.to] > order[a.from] {
			ch.upArcs[upPos[a.from]] = int32(i)
			upPos[a.from]++
		} else {
			ch.downArcs[downPos[a.to]] = int32(i)
			downPos[a.to]++
		}
	}

	// Sort arcs by (key, weight, index): the first arc of each key run is
	// the cheapest parallel arc, the earliest one on a tie.
	byKey := make([]int32, m)
	for i := range byKey {
		byKey[i] = int32(i)
	}
	slices.SortFunc(byKey, func(i, j int32) int {
		return cmp.Or(
			cmp.Compare(arcKey(arcs[i].from, arcs[i].to), arcKey(arcs[j].from, arcs[j].to)),
			cmp.Compare(arcs[i].weight, arcs[j].weight),
			cmp.Compare(i, j))
	})
	for _, i := range byKey {
		key := arcKey(arcs[i].from, arcs[i].to)
		if k := len(ch.idxKeys); k == 0 || ch.idxKeys[k-1] != key {
			ch.idxKeys = append(ch.idxKeys, key)
			ch.idxVals = append(ch.idxVals, i)
		}
	}
	return ch
}

// NumShortcuts returns the number of shortcut arcs added by preprocessing.
func (ch *ContractionHierarchy) NumShortcuts() int {
	n := 0
	for _, m := range ch.arcMid {
		if m >= 0 {
			n++
		}
	}
	return n
}

// chItem / vertexHeapCH: the binary heap of BuildCH's witness searches,
// with lazy deletion (stale entries are skipped on pop). Its order of
// popping equal keys is part of what fixes the hierarchy.
type chItem struct {
	v    int32
	dist float64
}

type vertexHeapCH struct{ a []chItem }

func (h *vertexHeapCH) len() int { return len(h.a) }

func (h *vertexHeapCH) push(it chItem) {
	h.a = append(h.a, it)
	i := len(h.a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].dist <= h.a[i].dist {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *vertexHeapCH) pop() chItem {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && h.a[l].dist < h.a[s].dist {
			s = l
		}
		if r < last && h.a[r].dist < h.a[s].dist {
			s = r
		}
		if s == i {
			break
		}
		h.a[i], h.a[s] = h.a[s], h.a[i]
		i = s
	}
	return top
}

// --- Pooled query workspace ---

// chWorkspace holds the per-query state of CH searches: forward/backward
// distance, parent-arc and reach-stamp arrays plus the two indexed heaps,
// and the bucket store for many-to-many queries. Starting a new search
// bumps a generation counter instead of clearing the arrays, so query setup
// is O(1) regardless of graph size and steady-state queries do not allocate.
type chWorkspace struct {
	distF, distB     []float64
	parentF, parentB []int32 // arc index per vertex
	reachF, reachB   []uint32
	gen              uint32
	heapF, heapB     heap4

	// Bucket store for ManyToMany: per-vertex singly linked lists of
	// (target index, distance) entries, stamped by bGen.
	bucketHead  []int32
	bucketStamp []uint32
	bGen        uint32
	entries     []chBucketEntry

	// arcStack is reconstruction scratch.
	arcStack []int32

	// Cancellation state; the amortized-poll contract shared with
	// Workspace (see ctxPoller in workspace.go).
	ctxPoller
}

type chBucketEntry struct {
	next int32
	tgt  int32
	dist float64
}

var chwsPool = sync.Pool{New: func() any { return &chWorkspace{} }}

func getCHWorkspace(n int) *chWorkspace {
	ws := chwsPool.Get().(*chWorkspace)
	ws.ensure(n)
	return ws
}

func (ws *chWorkspace) release() {
	ws.clearContext() // do not retain request contexts in the pool
	chwsPool.Put(ws)
}

func (ws *chWorkspace) ensure(n int) {
	if len(ws.distF) < n {
		ws.distF = make([]float64, n)
		ws.distB = make([]float64, n)
		ws.parentF = make([]int32, n)
		ws.parentB = make([]int32, n)
		ws.reachF = make([]uint32, n)
		ws.reachB = make([]uint32, n)
		ws.bucketHead = make([]int32, n)
		ws.bucketStamp = make([]uint32, n)
		ws.gen = 0
		ws.bGen = 0
	}
	ws.heapF.ensure(n)
	ws.heapB.ensure(n)
}

func (ws *chWorkspace) begin() {
	ws.gen++
	if ws.gen == 0 { // stamp wrap: clear once every 2^32 queries
		clearU32(ws.reachF)
		clearU32(ws.reachB)
		ws.gen = 1
	}
	ws.heapF.reset()
	ws.heapB.reset()
}

func (ws *chWorkspace) resetBuckets() {
	ws.bGen++
	if ws.bGen == 0 {
		clearU32(ws.bucketStamp)
		ws.bGen = 1
	}
	ws.entries = ws.entries[:0]
}

func (ws *chWorkspace) addBucket(v int32, tgt int32, dist float64) {
	next := int32(-1)
	if ws.bucketStamp[v] == ws.bGen {
		next = ws.bucketHead[v]
	} else {
		ws.bucketStamp[v] = ws.bGen
	}
	ws.entries = append(ws.entries, chBucketEntry{next: next, tgt: tgt, dist: dist})
	ws.bucketHead[v] = int32(len(ws.entries) - 1)
}

// --- Queries ---

// Query returns a minimum-cost path from src to dst, unpacking shortcuts
// into original edges. Costs equal Dijkstra's on the original graph. State
// comes from a pooled workspace, so the query allocates only the result.
func (ch *ContractionHierarchy) Query(src, dst roadnet.VertexID) (Path, error) {
	return ch.QueryCtx(context.Background(), src, dst)
}

// QueryCtx is Query honoring ctx: cancellation aborts the bidirectional
// search and returns ctx's error. The poll is amortized over heap pops, so
// a never-canceled context leaves results and cost unchanged.
func (ch *ContractionHierarchy) QueryCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error) {
	if src == dst {
		return Path{Vertices: []roadnet.VertexID{src}}, nil
	}
	ws := getCHWorkspace(ch.g.NumVertices())
	defer ws.release()
	ws.bindContext(ctx)
	ws.begin()
	gen := ws.gen

	ws.distF[src] = 0
	ws.reachF[src] = gen
	ws.distB[dst] = 0
	ws.reachB[dst] = gen
	ws.heapF.push(src, 0)
	ws.heapB.push(dst, 0)

	best := math.Inf(1)
	meet := int32(-1)
	for !ws.heapF.empty() || !ws.heapB.empty() {
		if ws.canceled() {
			return Path{}, ws.ctxErr
		}
		topF, topB := math.Inf(1), math.Inf(1)
		if !ws.heapF.empty() {
			topF = ws.heapF.topKey()
		}
		if !ws.heapB.empty() {
			topB = ws.heapB.topKey()
		}
		if math.Min(topF, topB) >= best {
			break
		}
		if topF <= topB {
			v, d := ws.heapF.pop()
			if ws.reachB[v] == gen && d+ws.distB[v] < best {
				best = d + ws.distB[v]
				meet = int32(v)
			}
			for s, e := ch.upStart[v], ch.upStart[v+1]; s < e; s++ {
				ai := ch.upArcs[s]
				to := ch.arcTo[ai]
				nd := d + ch.arcWeight[ai]
				if ws.reachF[to] != gen || nd < ws.distF[to] {
					ws.distF[to] = nd
					ws.reachF[to] = gen
					ws.parentF[to] = ai
					ws.heapF.update(roadnet.VertexID(to), nd)
				}
			}
		} else {
			v, d := ws.heapB.pop()
			if ws.reachF[v] == gen && d+ws.distF[v] < best {
				best = d + ws.distF[v]
				meet = int32(v)
			}
			for s, e := ch.downStart[v], ch.downStart[v+1]; s < e; s++ {
				ai := ch.downArcs[s]
				from := ch.arcFrom[ai]
				nd := d + ch.arcWeight[ai]
				if ws.reachB[from] != gen || nd < ws.distB[from] {
					ws.distB[from] = nd
					ws.reachB[from] = gen
					ws.parentB[from] = ai
					ws.heapB.update(roadnet.VertexID(from), nd)
				}
			}
		}
	}
	if meet < 0 {
		return Path{}, ErrNoPath
	}

	// Reconstruct arc sequences to/from the meeting vertex.
	up := ws.arcStack[:0]
	for v := meet; v != int32(src); {
		ai := ws.parentF[v]
		up = append(up, ai)
		v = ch.arcFrom[ai]
	}
	for i, j := 0, len(up)-1; i < j; i, j = i+1, j-1 {
		up[i], up[j] = up[j], up[i]
	}
	var edges []roadnet.EdgeID
	for _, ai := range up {
		ch.unpack(ai, &edges)
	}
	ws.arcStack = up[:0]
	for v := meet; v != int32(dst); {
		ai := ws.parentB[v]
		ch.unpack(ai, &edges)
		v = ch.arcTo[ai]
	}
	vertices := make([]roadnet.VertexID, 0, len(edges)+1)
	vertices = append(vertices, src)
	for _, eid := range edges {
		vertices = append(vertices, ch.g.Edge(eid).To)
	}
	return Path{Vertices: vertices, Edges: edges, Cost: best}, nil
}

// unpack recursively expands a (possibly shortcut) arc into original edges.
func (ch *ContractionHierarchy) unpack(ai int32, edges *[]roadnet.EdgeID) {
	mid := ch.arcMid[ai]
	if mid < 0 {
		*edges = append(*edges, ch.arcEdge[ai])
		return
	}
	from, to := ch.arcFrom[ai], ch.arcTo[ai]
	ch.unpack(ch.lookupArc(from, mid), edges)
	ch.unpack(ch.lookupArc(mid, to), edges)
}

// lookupArc returns the minimum-weight arc from→to by binary search over
// the sorted unpacking index.
func (ch *ContractionHierarchy) lookupArc(from, to int32) int32 {
	i, _ := slices.BinarySearch(ch.idxKeys, arcKey(from, to))
	return ch.idxVals[i]
}

// ManyToMany fills out[i][j] with the exact minimum cost from sources[i] to
// targets[j] for every pair whose cost is at most bound; pairs farther than
// bound (and unreachable pairs) are +Inf. out must have len(sources) rows
// of len(targets) columns.
//
// It runs the bucket algorithm (Knopp et al. 2007): one reverse upward
// search per target deposits (target, distance) entries at every vertex it
// settles, then one forward upward search per source scans the buckets of
// the vertices it settles. The cost is |S|+|T| truncated CH searches
// instead of |S| full Dijkstras, which is what makes HMM map-matching
// transitions cheap. Pass bound = +Inf for unbounded queries.
func (ch *ContractionHierarchy) ManyToMany(sources, targets []roadnet.VertexID, bound float64, out [][]float64) {
	inf := math.Inf(1)
	for i := range out {
		row := out[i]
		for j := range row {
			row[j] = inf
		}
	}
	if len(sources) == 0 || len(targets) == 0 {
		return
	}
	ws := getCHWorkspace(ch.g.NumVertices())
	defer ws.release()
	ws.resetBuckets()

	// Backward phase: reverse upward search from each target. Every settled
	// vertex v with final distance db gets a bucket entry (j, db).
	for j, t := range targets {
		ws.begin()
		gen := ws.gen
		ws.distB[t] = 0
		ws.reachB[t] = gen
		ws.heapB.push(t, 0)
		for !ws.heapB.empty() {
			v, d := ws.heapB.pop()
			ws.addBucket(int32(v), int32(j), d)
			for s, e := ch.downStart[v], ch.downStart[v+1]; s < e; s++ {
				ai := ch.downArcs[s]
				from := ch.arcFrom[ai]
				nd := d + ch.arcWeight[ai]
				if nd > bound {
					continue
				}
				if ws.reachB[from] != gen || nd < ws.distB[from] {
					ws.distB[from] = nd
					ws.reachB[from] = gen
					ws.heapB.update(roadnet.VertexID(from), nd)
				}
			}
		}
	}

	// Forward phase: upward search from each source; bucket scans join the
	// two half-paths.
	for i, s := range sources {
		row := out[i]
		ws.begin()
		gen := ws.gen
		ws.distF[s] = 0
		ws.reachF[s] = gen
		ws.heapF.push(s, 0)
		for !ws.heapF.empty() {
			v, d := ws.heapF.pop()
			if ws.bucketStamp[v] == ws.bGen {
				for bi := ws.bucketHead[v]; bi >= 0; bi = ws.entries[bi].next {
					ent := ws.entries[bi]
					if cand := d + ent.dist; cand < row[ent.tgt] {
						row[ent.tgt] = cand
					}
				}
			}
			for st, e := ch.upStart[v], ch.upStart[v+1]; st < e; st++ {
				ai := ch.upArcs[st]
				to := ch.arcTo[ai]
				nd := d + ch.arcWeight[ai]
				if nd > bound {
					continue
				}
				if ws.reachF[to] != gen || nd < ws.distF[to] {
					ws.distF[to] = nd
					ws.reachF[to] = gen
					ws.heapF.update(roadnet.VertexID(to), nd)
				}
			}
		}
		// A pair joined through pruned half-searches can only be proven
		// within bound when its total is; anything above the bound reports
		// +Inf, matching a bounded Dijkstra's contract.
		for j := range row {
			if row[j] > bound {
				row[j] = inf
			}
		}
	}
}
