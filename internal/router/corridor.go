package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// This file implements cross-shard queries: boundary-set stitching.
//
// Correctness rests on the separator property of the geometric partition
// (every path between vertices of different shards passes through
// boundary vertices) and three facts, each mirrored by a property test:
//
//  1. dS(b) = min over u in B_i of d_i(s→u) + D(u,b) is the EXACT
//     full-graph distance d(s,b) for every boundary vertex b, where
//     d_i is the within-shard distance read from the shard map's
//     endpoint tables and D the shard map's boundary table, a sweep over
//     the overlay of cut edges and in-shard boundary-to-boundary legs
//     (first-exit decomposition of an optimal path). Symmetrically for
//     dT(b). An endpoint table entry comes from a sweep rooted at the
//     boundary vertex, and D sums each in-shard leg on its own, so either
//     may differ from a full-graph sweep rooted at s in the last bits;
//     dS(b) is a two-term float sum either way, and every consumer below
//     has slack far above an ulp (the corridor's prunes carry
//     corridorSlack, the certificate keeps consumed paths within
//     C/(1+1e-6)), so the answer does not depend on those bits.
//  2. A shard's corridor — owned vertices v with fwd(v)+rev(v) <= C
//     where the sweeps are seeded with (b, dS(b)) / (b, dT(b)) — is a
//     superset of the owned vertices on ANY loopless s→t path of cost at
//     most C (last-entry decomposition; the seeded sweep computes the
//     exact full-graph d(s,v) and d(v,t) for owned vertices).
//  3. A cut edge u→v on a path of cost at most C has
//     dS(u)+dT(u) <= C and dS(v)+dT(v) <= C, and cut-edge endpoints are
//     always boundary vertices, so the router can test this locally.
//
// The fused subgraph (shard corridors + qualifying cut edges) therefore
// contains every loopless s→t path of cost <= C. Enumeration on it is
// accepted only under a certificate that the answer cannot involve any
// path of cost beyond C: either the run never consumed a path of cost
// close to C and did not exhaust the restricted path set, or the bound
// has grown past the total edge weight (an upper bound on any loopless
// path's cost), making the restricted enumeration the complete one.
// Otherwise C doubles and the corridor is re-extracted.

// fusedGraph is the corridor subgraph re-assembled under dense local IDs,
// with the translations back to global vertex and edge IDs (local IDs
// follow global ones) and the query's endpoints under local IDs.
type fusedGraph struct {
	g        *roadnet.Graph
	globalV  []roadnet.VertexID
	globalE  []roadnet.EdgeID
	src, dst roadnet.VertexID
}

// vertexIndex translates global vertex IDs to a fused graph's local ones:
// slot[v] holds v's local ID iff its stamp is the current generation, so a
// fuse starts with an O(1) reset (the spath.Workspace idiom).
type vertexIndex struct {
	slot []indexSlot
	gen  uint32
}

type indexSlot struct {
	local roadnet.VertexID
	gen   uint32
}

var indexPool = sync.Pool{New: func() any { return new(vertexIndex) }}

// reset empties the index and sizes it for n global vertices.
func (x *vertexIndex) reset(n int) {
	if len(x.slot) < n {
		x.slot = make([]indexSlot, n)
		x.gen = 0
	}
	x.gen++
	if x.gen == 0 { // stamp wrap: clear once every 2^32 fuses
		clear(x.slot)
		x.gen = 1
	}
}

// local returns the local ID of global vertex v, if v is in the index.
func (x *vertexIndex) local(v roadnet.VertexID) (roadnet.VertexID, bool) {
	s := x.slot[v]
	return s.local, s.gen == x.gen
}

// crossShard answers a query whose endpoints live on different shards.
func (rt *Router) crossShard(ctx context.Context, q api.RankQuery, rs resolved, i, j int) (*api.Rendered, *api.Error) {
	genStart := time.Now()
	D, total, metric := rt.sm.DLen, rt.sm.TotalLen, 0
	if rs.Weight == pathrank.WeightTime {
		D, total, metric = rt.sm.DTime, rt.sm.TotalTime, 1
	}

	// Stitch: exact full-graph source/destination distances at every
	// separator vertex, from the endpoints' rows of the shard map's
	// endpoint tables and the boundary-to-boundary table. A strict < picks
	// what min would because no distance here is NaN or −0 (sums of
	// non-negative weights from a +0 seed never round to −0).
	di := rt.sm.EndpointDistances(roadnet.VertexID(rs.src), rs.Weight, false)
	dj := rt.sm.EndpointDistances(roadnet.VertexID(rs.dst), rs.Weight, true)
	nb := len(rt.boundary)
	dS := make([]float64, nb)
	dT := make([]float64, nb)
	for b := range dS {
		dS[b] = math.Inf(1)
	}
	for ui, pu := range rt.shardBPos[i] {
		du := di[ui]
		if math.IsInf(du, 1) {
			continue
		}
		for b, x := range D[int(pu)*nb : (int(pu)+1)*nb] {
			if d := du + x; d < dS[b] {
				dS[b] = d
			}
		}
	}
	cols, nj := rt.dcols[metric][j], len(dj)
	dstar := math.Inf(1)
	for b := range dT {
		t := math.Inf(1)
		for wi, x := range cols[b*nj : (b+1)*nj : (b+1)*nj] {
			if d := x + dj[wi]; d < t { // an unreachable leg sums to +Inf
				t = d
			}
		}
		dT[b] = t
		if d := dS[b] + t; d < dstar {
			dstar = d
		}
	}
	if math.IsInf(dstar, 1) {
		return nil, &api.Error{
			Status: http.StatusNotFound, Code: api.CodeUnroutable,
			Message: fmt.Sprintf("no path from %d to %d", q.Src, q.Dst),
		}
	}

	// Corridor rounds: grow the bound until the enumeration certifies.
	// totalCap exceeds the cost of any loopless path, so the last round
	// always certifies (the corridor then holds the whole relevant
	// component and the restricted enumeration is the complete one).
	totalCap := total*(1+1e-6) + 1
	C := 2 * dstar
	if C <= 0 {
		C = 1
	}
	if C > totalCap {
		C = totalCap
	}
	corridorStats := make(map[int]*api.ShardStat)
	var fg *fusedGraph
	var cands []spath.Path
	accepted := false
	rounds := 0
	for r := 0; r < maxRounds && !accepted; r++ {
		rounds++
		if r == maxRounds-1 {
			C = totalCap
		}
		var apiErr *api.Error
		fg, apiErr = rt.extractCorridor(ctx, rs, dS, dT, C, i, j, corridorStats)
		if apiErr != nil {
			return nil, apiErr
		}
		var st spath.EnumStats
		var err error
		cands, st, err = rt.enumerate(ctx, fg, rs)
		if err != nil {
			return nil, pathrank.APIError(err)
		}
		switch {
		case !st.Exhausted && st.MaxCost*(1+1e-6) <= C:
			// The run never consumed a path near the bound: the corridor
			// could not have hidden anything it would have looked at.
			accepted = true
		case st.Exhausted && C >= total:
			// Every loopless path costs at most the total edge weight, so
			// the corridor holds all of them: the enumeration genuinely
			// ran dry, exactly as it would on the full graph.
			accepted = true
		default:
			C = math.Max(2*C, 2*st.MaxCost)
			if C > totalCap {
				C = totalCap
			}
		}
	}
	rt.obs.rounds.With().Observe(float64(rounds))
	if !accepted {
		return nil, &api.Error{
			Status: http.StatusInternalServerError, Code: api.CodeInternal,
			Message: fmt.Sprintf("corridor enumeration did not certify after %d rounds", rounds),
		}
	}
	genNs := time.Since(genStart).Nanoseconds()

	// Score the candidates under global IDs with the bundle model and rank
	// them as a single server does. Lengths and times are computed on the
	// corridor graph, whose edge records are bit-for-bit the full graph's.
	scoreStart := time.Now()
	globalPaths := make([]spath.Path, len(cands))
	for ci, p := range cands {
		gv := make([]roadnet.VertexID, len(p.Vertices))
		for vi, v := range p.Vertices {
			gv[vi] = fg.globalV[v]
		}
		ge := make([]roadnet.EdgeID, len(p.Edges))
		for ei, e := range p.Edges {
			ge[ei] = fg.globalE[e]
		}
		globalPaths[ci] = spath.Path{Vertices: gv, Edges: ge, Cost: p.Cost}
	}
	ranked := pathrank.RankScored(cands, rt.model.ScoreBatch(globalPaths))
	scoreNs := time.Since(scoreStart).Nanoseconds()
	paths, err := pathrank.RenderPaths(fg.g, ranked, fg.globalV)
	if err != nil {
		return nil, pathrank.APIError(err)
	}

	res := &api.Rendered{Src: q.Src, Dst: q.Dst, K: q.K, Paths: paths}
	if q.Explain {
		stats := pathrank.RankStats{
			Regime: rs.Regime, Candidates: len(cands), GenNanos: genNs, ScoreNanos: scoreNs,
		}.Wire()
		stats.Route = "cross_shard"
		stats.Shards = make([]api.ShardStat, 0, len(corridorStats))
		for _, st := range corridorStats {
			stats.Shards = append(stats.Shards, *st)
		}
		sort.Slice(stats.Shards, func(a, b int) bool { return stats.Shards[a].Shard < stats.Shards[b].Shard })
		res.Stats = stats
	}
	return res, nil
}

// extractCorridor fans a corridor extraction at bound C out to every
// participating shard and fuses the answers with the qualifying cut edges
// into one sub-road-network.
func (rt *Router) extractCorridor(ctx context.Context, rs resolved, dS, dT []float64, C float64, i, j int, stats map[int]*api.ShardStat) (*fusedGraph, *api.Error) {
	// A shard participates when some boundary vertex of it can lie on a
	// path within the bound; the endpoint shards always do.
	var parts []int
	for m := 0; m < rt.sm.Parts; m++ {
		if m == i || m == j {
			parts = append(parts, m)
			continue
		}
		for _, p := range rt.shardBPos[m] {
			if dS[p]+dT[p] <= C {
				parts = append(parts, m)
				break
			}
		}
	}

	answers := make([]*pathrank.CorridorAnswer, len(parts))
	errs := make([]*api.Error, len(parts))
	var mu sync.Mutex
	leg := func(pi, m int) {
		q := pathrank.CorridorQuery{Bound: C, Weight: rs.Weight}
		for bi, p := range rt.shardBPos[m] {
			if d := dS[p]; d <= C {
				q.Seeds = append(q.Seeds, spath.Seed{V: rt.sm.Boundary[m][bi], Dist: d})
			}
			if d := dT[p]; d <= C {
				q.RSeeds = append(q.RSeeds, spath.Seed{V: rt.sm.Boundary[m][bi], Dist: d})
			}
		}
		if m == i {
			q.Seeds = append(q.Seeds, spath.Seed{V: roadnet.VertexID(rs.src), Dist: 0})
		}
		if m == j {
			q.RSeeds = append(q.RSeeds, spath.Seed{V: roadnet.VertexID(rs.dst), Dist: 0})
		}
		rt.obs.shards[m].corridor.Inc()
		status, respBody, meta, err := rt.callShard(ctx, m, "/shard/corridor", pathrank.ShardWireContentType, pathrank.EncodeCorridorQuery(q))
		mu.Lock()
		st := stats[m]
		if st == nil {
			st = &api.ShardStat{Shard: m, Role: "corridor"}
			stats[m] = st
		}
		st.Calls += meta.calls
		st.TotalNs += meta.totalNs
		st.Hedged = st.Hedged || meta.hedged
		mu.Unlock()
		if err != nil {
			errs[pi] = shardUnavailable(m, err)
			return
		}
		if status != http.StatusOK {
			errs[pi] = shardHTTPError(m, status, respBody)
			return
		}
		ans, err := pathrank.DecodeCorridorAnswer(respBody)
		if err != nil {
			errs[pi] = shardProtocolError(m, err.Error())
			return
		}
		if defect := rt.checkCorridor(m, ans); defect != "" {
			errs[pi] = shardProtocolError(m, defect)
			return
		}
		answers[pi] = ans
	}
	// Every leg but the last on its own goroutine, the last on this one.
	last := len(parts) - 1
	var wg sync.WaitGroup
	for pi, m := range parts[:last] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			leg(pi, m)
		}()
	}
	leg(last, parts[last])
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return rt.fuse(parts, answers, dS, dT, C, rs)
}

// checkCorridor describes the first way shard m's corridor breaks the
// bundle's contract, or returns "". Every vertex must be in range and owned
// by m, and every edge in range, between two vertices m owns, with a
// finite non-negative length and time: the router scores paths under these
// global IDs against the model's tables, and fuse relies on shards sending
// disjoint vertex sets. Order is fuse's to check.
func (rt *Router) checkCorridor(m int, a *pathrank.CorridorAnswer) string {
	if a.Fingerprint != rt.fp {
		return fmt.Sprintf("serves fingerprint %.6x, bundle is %.6x", a.Fingerprint, rt.fp)
	}
	owned := func(v roadnet.VertexID) bool {
		return v >= 0 && int(v) < rt.sm.NumVertices && rt.sm.Owner[v] == int32(m)
	}
	for i := 0; i < a.NumVertices(); i++ {
		if v := a.Vertex(i).ID; !owned(v) {
			return fmt.Sprintf("corridor vertex %d is not a vertex this shard owns", uint32(v))
		}
	}
	cost := func(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }
	for i := 0; i < a.NumEdges(); i++ {
		e := a.Edge(i)
		switch {
		case e.ID < 0 || int(e.ID) >= rt.sm.NumEdges:
			return fmt.Sprintf("corridor edge %d out of range [0,%d)", uint32(e.ID), rt.sm.NumEdges)
		case !owned(e.From) || !owned(e.To):
			return fmt.Sprintf("corridor edge %d joins %d→%d, not two vertices this shard owns", e.ID, uint32(e.From), uint32(e.To))
		case !cost(e.Length) || !cost(e.Time):
			return fmt.Sprintf("corridor edge %d has length %g and time %g, not finite non-negative costs", e.ID, e.Length, e.Time)
		}
	}
	return ""
}

// fuse assembles the shard corridors and the qualifying cut edges into a
// dense sub-road-network whose local IDs follow global ones. Each shard
// lists its corridor in ascending global IDs and shards own disjoint
// vertex sets (checkCorridor), so merging the per-shard runs — and, for
// edges, the cut edges, the only edges between corridors — yields global
// order without a sort. An answer out of order shows up as a merged ID
// that fails to ascend.
func (rt *Router) fuse(parts []int, answers []*pathrank.CorridorAnswer, dS, dT []float64, C float64, rs resolved) (*fusedGraph, *api.Error) {
	// A cut edge joins the corridor when both endpoints can lie on a
	// bounded path; endpoints of cut edges are always boundary vertices,
	// so their exact distances are at hand.
	var cut []roadnet.Edge
	for _, e := range rt.sm.CutEdges {
		pu, pv := rt.bpos[e.From], rt.bpos[e.To]
		if dS[pu]+dT[pu] <= C && dS[pv]+dT[pv] <= C {
			cut = append(cut, e)
		}
	}
	// runs[k] is answer k's record count; the last run is the cut edges.
	runs := make([]int, len(answers)+1)
	nv, ne := 0, len(cut)
	for _, a := range answers {
		nv += a.NumVertices()
		ne += a.NumEdges()
	}
	fg := &fusedGraph{
		globalV: make([]roadnet.VertexID, 0, nv),
		globalE: make([]roadnet.EdgeID, 0, ne),
	}
	idx := indexPool.Get().(*vertexIndex)
	defer indexPool.Put(idx)
	idx.reset(rt.sm.NumVertices)
	vertices := make([]roadnet.Vertex, 0, nv)
	edges := make([]roadnet.Edge, 0, ne)
	var bad *api.Error
	fail := func(run int, format string, args ...any) bool {
		shard := -1 // the router's own cut edges
		if run < len(parts) {
			shard = parts[run]
		}
		bad = shardProtocolError(shard, fmt.Sprintf(format, args...))
		return false
	}

	for k, a := range answers {
		runs[k] = a.NumVertices()
	}
	vertexID := func(run, i int) int32 { return int32(answers[run].Vertex(i).ID) }
	mergeRuns(runs[:len(answers)], vertexID, func(run, i int) bool {
		v := answers[run].Vertex(i)
		if n := len(fg.globalV); n > 0 && v.ID <= fg.globalV[n-1] {
			return fail(run, "corridor vertex %d out of ascending order", v.ID)
		}
		idx.slot[v.ID] = indexSlot{local: roadnet.VertexID(len(vertices)), gen: idx.gen}
		fg.globalV = append(fg.globalV, v.ID)
		vertices = append(vertices, roadnet.Vertex{ID: roadnet.VertexID(len(vertices)), Point: v.Point})
		return true
	})
	if bad != nil {
		return nil, bad
	}

	for k, a := range answers {
		runs[k] = a.NumEdges()
	}
	runs[len(answers)] = len(cut)
	edge := func(run, i int) roadnet.Edge {
		if run == len(answers) {
			return cut[i]
		}
		return answers[run].Edge(i)
	}
	edgeID := func(run, i int) int32 { return int32(edge(run, i).ID) }
	mergeRuns(runs, edgeID, func(run, i int) bool {
		e := edge(run, i)
		if n := len(fg.globalE); n > 0 && e.ID <= fg.globalE[n-1] {
			return fail(run, "corridor edge %d out of ascending order or sent twice", e.ID)
		}
		lf, okF := idx.local(e.From)
		lt, okT := idx.local(e.To)
		if !okF || !okT {
			return fail(run, "corridor edge %d references vertex outside the fused corridor", e.ID)
		}
		fg.globalE = append(fg.globalE, e.ID)
		edges = append(edges, roadnet.Edge{
			ID: roadnet.EdgeID(len(edges)), From: lf, To: lt,
			Length: e.Length, Time: e.Time, Category: e.Category,
		})
		return true
	})
	if bad != nil {
		return nil, bad
	}
	var ok bool
	if fg.src, ok = idx.local(roadnet.VertexID(rs.src)); !ok {
		return nil, shardProtocolError(int(rt.sm.Owner[rs.src]), "corridor answer omits the source vertex")
	}
	if fg.dst, ok = idx.local(roadnet.VertexID(rs.dst)); !ok {
		return nil, shardProtocolError(int(rt.sm.Owner[rs.dst]), "corridor answer omits the destination vertex")
	}
	fg.g = roadnet.NewGraphFromData(vertices, edges)
	return fg, nil
}

// mergeRuns visits the records of ascending runs in merged order: each step
// emits the run whose next key is smallest, until every run is spent or
// emit returns false. runs[r] is run r's length. There is one run per
// participating shard (and one more), so the heads are scanned linearly;
// each record's key is read once.
func mergeRuns(runs []int, key func(run, i int) int32, emit func(run, i int) bool) {
	next := make([]int, len(runs))
	head := make([]int32, len(runs))
	for r, n := range runs {
		if n > 0 {
			head[r] = key(r, 0)
		}
	}
	for {
		best := -1
		for r, n := range runs {
			if next[r] < n && (best < 0 || head[r] < head[best]) {
				best = r
			}
		}
		if best < 0 || !emit(best, next[best]) {
			return
		}
		if next[best]++; next[best] < runs[best] {
			head[best] = key(best, next[best])
		}
	}
}

// enumerate runs the ordinary candidate generation on the fused corridor
// graph — the same code path a single-process server uses, with
// enumeration statistics for the certification check.
func (rt *Router) enumerate(ctx context.Context, fg *fusedGraph, rs resolved) ([]spath.Path, spath.EnumStats, error) {
	cfg := dataset.Config{Strategy: rs.Strategy, K: rs.K, Threshold: rs.Threshold, MaxProbe: rs.MaxProbe}
	return cfg.Candidates(ctx, fg.g, nil, rs.Weight.Weight(), nil, fg.src, fg.dst)
}
