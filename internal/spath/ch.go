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

// BuildCH preprocesses g under w. Construction uses a lazy-update priority
// queue over the edge-difference heuristic.
func BuildCH(g *roadnet.Graph, w Weight) *ContractionHierarchy {
	n := g.NumVertices()

	// Working adjacency (mutable during contraction): out and in arc lists
	// per vertex over remaining (uncontracted) vertices.
	type dynArc struct {
		other  int32
		weight float64
		mid    int32
		edge   roadnet.EdgeID
	}
	out := make([][]dynArc, n)
	in := make([][]dynArc, n)
	for i := 0; i < g.NumEdges(); i++ {
		e := g.Edge(roadnet.EdgeID(i))
		wt := w(e)
		out[e.From] = append(out[e.From], dynArc{other: int32(e.To), weight: wt, mid: -1, edge: e.ID})
		in[e.To] = append(in[e.To], dynArc{other: int32(e.From), weight: wt, mid: -1, edge: e.ID})
	}
	contracted := make([]bool, n)

	// witnessSearch checks whether a path from s to t avoiding v with cost
	// <= bound exists, using a bounded Dijkstra over remaining vertices.
	witnessSearch := func(s, t, v int32, bound float64) bool {
		const maxSettle = 60
		dist := map[int32]float64{s: 0}
		h := &vertexHeapCH{}
		h.push(chItem{v: s})
		settled := 0
		for h.len() > 0 && settled < maxSettle {
			it := h.pop()
			if it.dist > dist[it.v] {
				continue
			}
			if it.v == t {
				return it.dist <= bound
			}
			if it.dist > bound {
				return false
			}
			settled++
			for _, a := range out[it.v] {
				if contracted[a.other] || a.other == v {
					continue
				}
				nd := it.dist + a.weight
				if cur, ok := dist[a.other]; !ok || nd < cur {
					dist[a.other] = nd
					h.push(chItem{v: a.other, dist: nd})
				}
			}
		}
		d, ok := dist[t]
		return ok && d <= bound
	}

	// simulate counts the shortcuts contraction of v would add.
	simulate := func(v int32, insert bool) int {
		added := 0
		for _, ia := range in[v] {
			if contracted[ia.other] {
				continue
			}
			for _, oa := range out[v] {
				if contracted[oa.other] || ia.other == oa.other {
					continue
				}
				through := ia.weight + oa.weight
				if witnessSearch(ia.other, oa.other, v, through) {
					continue
				}
				added++
				if insert {
					out[ia.other] = append(out[ia.other], dynArc{other: oa.other, weight: through, mid: v})
					in[oa.other] = append(in[oa.other], dynArc{other: ia.other, weight: through, mid: v})
				}
			}
		}
		return added
	}

	degree := func(v int32) int {
		d := 0
		for _, a := range out[v] {
			if !contracted[a.other] {
				d++
			}
		}
		for _, a := range in[v] {
			if !contracted[a.other] {
				d++
			}
		}
		return d
	}
	priority := func(v int32) int { return simulate(v, false)*2 - degree(v) }

	// Lazy priority queue.
	type pqCH struct {
		v    int32
		prio int
	}
	pq := make([]pqCH, 0, n)
	for v := 0; v < n; v++ {
		pq = append(pq, pqCH{v: int32(v), prio: priority(int32(v))})
	}
	sort.Slice(pq, func(a, b int) bool { return pq[a].prio < pq[b].prio })

	order := make([]int32, n)
	var allArcs []chArc
	rank := int32(0)
	// Collect original edges as arcs once; shortcuts appended during
	// contraction.
	for v := 0; v < n; v++ {
		for _, a := range out[v] {
			allArcs = append(allArcs, chArc{from: int32(v), to: a.other, weight: a.weight, mid: -1, edge: a.edge})
		}
	}

	heapify := func() {
		sort.Slice(pq, func(a, b int) bool { return pq[a].prio < pq[b].prio })
	}
	for len(pq) > 0 {
		top := pq[0]
		if contracted[top.v] {
			pq = pq[1:]
			continue
		}
		// Lazy update: recompute priority; if it's no longer minimal,
		// re-sort (amortized acceptable at our network sizes).
		np := priority(top.v)
		if len(pq) > 1 && np > pq[1].prio {
			pq[0].prio = np
			heapify()
			continue
		}
		pq = pq[1:]
		v := top.v
		// Insert shortcuts for v, recording them as arcs.
		for _, ia := range in[v] {
			if contracted[ia.other] {
				continue
			}
			for _, oa := range out[v] {
				if contracted[oa.other] || ia.other == oa.other {
					continue
				}
				through := ia.weight + oa.weight
				if witnessSearch(ia.other, oa.other, v, through) {
					continue
				}
				out[ia.other] = append(out[ia.other], dynArc{other: oa.other, weight: through, mid: v})
				in[oa.other] = append(in[oa.other], dynArc{other: ia.other, weight: through, mid: v})
				allArcs = append(allArcs, chArc{from: ia.other, to: oa.other, weight: through, mid: v})
			}
		}
		contracted[v] = true
		order[v] = rank
		rank++
	}

	return newCH(g, order, allArcs)
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

// NumArcs returns the total number of arcs (original edges + shortcuts) in
// the augmented search graph.
func (ch *ContractionHierarchy) NumArcs() int { return len(ch.arcFrom) }

// chItem / vertexHeapCH: small map-backed binary heap used only during
// construction's witness searches (sparse, short-lived).
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

// OneToMany fills out[j] with the exact minimum cost from src to targets[j]
// for targets within bound, +Inf otherwise. It is ManyToMany with a single
// source.
func (ch *ContractionHierarchy) OneToMany(src roadnet.VertexID, targets []roadnet.VertexID, bound float64, out []float64) {
	rows := [][]float64{out}
	ch.ManyToMany([]roadnet.VertexID{src}, targets, bound, rows)
}
