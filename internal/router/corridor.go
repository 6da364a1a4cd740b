package router

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
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
//     d_i is the within-shard distance from the /shard/boundary call and
//     D the precomputed full-graph boundary table (first-exit
//     decomposition of an optimal path). Symmetrically for dT(b).
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

// boundaryOut is one shard's boundary distance vector, Inf-decoded.
type boundaryOut struct {
	dist []float64
	meta callMeta
}

// shardBoundary fetches the boundary distance vector of shard's owned
// endpoint: d(v → each boundary vertex) for dir "fwd", d(each boundary
// vertex → v) for "rev".
func (rt *Router) shardBoundary(ctx context.Context, shard int, v int64, dir, weightName string) (boundaryOut, *api.Error) {
	body, _ := json.Marshal(api.BoundaryRequest{V: v, Dir: dir, Weight: weightName})
	rt.obs.shardCalls.With(fmt.Sprint(shard), "boundary").Inc()
	status, respBody, meta, err := rt.callShard(ctx, shard, http.MethodPost, "/shard/boundary", body)
	out := boundaryOut{meta: meta}
	if err != nil {
		return out, shardUnavailable(shard, err)
	}
	if status != http.StatusOK {
		return out, shardHTTPError(shard, status, respBody)
	}
	var resp api.BoundaryResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return out, shardProtocolError(shard, fmt.Sprintf("unreadable boundary response: %v", err))
	}
	if resp.Fingerprint != rt.sm.Fingerprint {
		return out, shardProtocolError(shard, fmt.Sprintf(
			"serves fingerprint %.12s, bundle is %.12s", resp.Fingerprint, rt.sm.Fingerprint))
	}
	if len(resp.Dist) != len(rt.sm.Boundary[shard]) {
		return out, shardProtocolError(shard, fmt.Sprintf(
			"boundary vector has %d entries, shard map says %d", len(resp.Dist), len(rt.sm.Boundary[shard])))
	}
	for i, d := range resp.Dist {
		if d < 0 {
			resp.Dist[i] = math.Inf(1)
		}
	}
	out.dist = resp.Dist
	return out, nil
}

// shardHTTPError relays a shard's own typed error; an unreadable body
// degrades to shard_unavailable.
func shardHTTPError(shard, status int, body []byte) *api.Error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		env.Error.Status = status
		return env.Error
	}
	return &api.Error{
		Status: http.StatusServiceUnavailable, Code: api.CodeShardUnavailable,
		Message: fmt.Sprintf("shard %d: HTTP %d with unreadable error body", shard, status),
	}
}

// shardProtocolError reports a shard answering outside the bundle's
// contract (wrong generation, malformed payload) as shard_unavailable:
// retrying may reach a recovered or re-deployed worker.
func shardProtocolError(shard int, msg string) *api.Error {
	return &api.Error{
		Status: http.StatusServiceUnavailable, Code: api.CodeShardUnavailable,
		Message: fmt.Sprintf("shard %d: %s", shard, msg),
	}
}

// fusedGraph is the corridor subgraph re-assembled under dense local IDs,
// with the translations back to global vertex and edge IDs.
type fusedGraph struct {
	g       *roadnet.Graph
	globalV []roadnet.VertexID
	globalE []roadnet.EdgeID
	local   map[int64]roadnet.VertexID
}

// crossShard answers a query whose endpoints live on different shards.
func (rt *Router) crossShard(ctx context.Context, q api.RankQuery, rs resolved, i, j int) (*api.RankResult, *api.Error) {
	genStart := time.Now()
	weightName := "length"
	D, total := rt.sm.DLen, rt.sm.TotalLen
	if rs.Weight == pathrank.WeightTime {
		weightName = "time"
		D, total = rt.sm.DTime, rt.sm.TotalTime
	}

	// Boundary fan-out: the two endpoint shards, in parallel.
	var bi, bj boundaryOut
	var errI, errJ *api.Error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); bi, errI = rt.shardBoundary(ctx, i, rs.src, "fwd", weightName) }()
	go func() { defer wg.Done(); bj, errJ = rt.shardBoundary(ctx, j, rs.dst, "rev", weightName) }()
	wg.Wait()
	if errI != nil {
		return nil, errI
	}
	if errJ != nil {
		return nil, errJ
	}

	// Stitch: exact full-graph source/destination distances at every
	// separator vertex, via the precomputed boundary-to-boundary table.
	nb := len(rt.boundary)
	dS := make([]float64, nb)
	dT := make([]float64, nb)
	for b := range dS {
		dS[b] = math.Inf(1)
		dT[b] = math.Inf(1)
	}
	for ui, pu := range rt.shardBPos[i] {
		du := bi.dist[ui]
		if math.IsInf(du, 1) {
			continue
		}
		row := D[int(pu)*nb : (int(pu)+1)*nb]
		for b := 0; b < nb; b++ {
			if v := du + row[b]; v < dS[b] {
				dS[b] = v
			}
		}
	}
	for wi, pw := range rt.shardBPos[j] {
		dw := bj.dist[wi]
		if math.IsInf(dw, 1) {
			continue
		}
		for b := 0; b < nb; b++ {
			if v := D[b*nb+int(pw)] + dw; v < dT[b] {
				dT[b] = v
			}
		}
	}
	dstar := math.Inf(1)
	for b := 0; b < nb; b++ {
		if v := dS[b] + dT[b]; v < dstar {
			dstar = v
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
	for r := 0; r < rt.cfg.MaxRounds && !accepted; r++ {
		rounds++
		if r == rt.cfg.MaxRounds-1 {
			C = totalCap
		}
		var apiErr *api.Error
		fg, apiErr = rt.extractCorridor(ctx, rs, dS, dT, C, weightName, i, j, corridorStats)
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
	paths := make([]api.RankedPath, len(ranked))
	for rank, r := range ranked {
		verts := make([]int64, len(r.Path.Vertices))
		for vi, v := range r.Path.Vertices {
			verts[vi] = int64(fg.globalV[v])
		}
		paths[rank] = api.RankedPath{
			Rank:     rank + 1,
			Score:    r.Score,
			LengthM:  r.Path.Length(fg.g),
			TimeS:    r.Path.Time(fg.g),
			Hops:     r.Path.Len(),
			Vertices: verts,
		}
	}

	res := &api.RankResult{Src: q.Src, Dst: q.Dst, K: q.K, Paths: paths}
	if q.Explain {
		stats := pathrank.RankStats{
			Regime: rs.Regime, Candidates: len(cands), GenNanos: genNs, ScoreNanos: scoreNs,
		}.Wire()
		stats.Route = "cross_shard"
		stats.Shards = []api.ShardStat{
			{Shard: i, Role: "boundary", Calls: bi.meta.calls, TotalNs: bi.meta.totalNs, Hedged: bi.meta.hedged},
			{Shard: j, Role: "boundary", Calls: bj.meta.calls, TotalNs: bj.meta.totalNs, Hedged: bj.meta.hedged},
		}
		corr := make([]api.ShardStat, 0, len(corridorStats))
		for _, st := range corridorStats {
			corr = append(corr, *st)
		}
		sort.Slice(corr, func(a, b int) bool { return corr[a].Shard < corr[b].Shard })
		stats.Shards = append(stats.Shards, corr...)
		res.Stats = stats
	}
	return res, nil
}

// extractCorridor fans a corridor extraction at bound C out to every
// participating shard and fuses the responses with the qualifying cut
// edges into one sub-road-network.
func (rt *Router) extractCorridor(ctx context.Context, rs resolved, dS, dT []float64, C float64, weightName string, i, j int, stats map[int]*api.ShardStat) (*fusedGraph, *api.Error) {
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

	responses := make([]*api.CorridorResponse, len(parts))
	errs := make([]*api.Error, len(parts))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for pi, m := range parts {
		wg.Add(1)
		go func(pi, m int) {
			defer wg.Done()
			req := api.CorridorRequest{Bound: C, Weight: weightName}
			for bi, p := range rt.shardBPos[m] {
				if d := dS[p]; d <= C {
					req.Seeds = append(req.Seeds, api.ShardSeed{V: int64(rt.sm.Boundary[m][bi]), Dist: d})
				}
				if d := dT[p]; d <= C {
					req.RSeeds = append(req.RSeeds, api.ShardSeed{V: int64(rt.sm.Boundary[m][bi]), Dist: d})
				}
			}
			if m == i {
				req.Seeds = append(req.Seeds, api.ShardSeed{V: rs.src, Dist: 0})
			}
			if m == j {
				req.RSeeds = append(req.RSeeds, api.ShardSeed{V: rs.dst, Dist: 0})
			}
			body, _ := json.Marshal(req)
			rt.obs.shardCalls.With(fmt.Sprint(m), "corridor").Inc()
			status, respBody, meta, err := rt.callShard(ctx, m, http.MethodPost, "/shard/corridor", body)
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
			var resp api.CorridorResponse
			if err := json.Unmarshal(respBody, &resp); err != nil {
				errs[pi] = shardProtocolError(m, fmt.Sprintf("unreadable corridor response: %v", err))
				return
			}
			if resp.Fingerprint != rt.sm.Fingerprint {
				errs[pi] = shardProtocolError(m, fmt.Sprintf(
					"serves fingerprint %.12s, bundle is %.12s", resp.Fingerprint, rt.sm.Fingerprint))
				return
			}
			responses[pi] = &resp
		}(pi, m)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return rt.fuse(responses, dS, dT, C, rs)
}

// fuse assembles the shard corridors and the qualifying cut edges into a
// dense sub-road-network. Shards own disjoint vertex sets, so the
// corridors are disjoint; cut edges are the only edges between them.
func (rt *Router) fuse(responses []*api.CorridorResponse, dS, dT []float64, C float64, rs resolved) (*fusedGraph, *api.Error) {
	var wireV []api.CorridorVertex
	var wireE []api.CorridorEdge
	for _, resp := range responses {
		wireV = append(wireV, resp.Vertices...)
		wireE = append(wireE, resp.Edges...)
	}
	// A cut edge joins the corridor when both endpoints can lie on a
	// bounded path; endpoints of cut edges are always boundary vertices,
	// so their exact distances are at hand.
	for _, e := range rt.sm.CutEdges {
		pu, pv := rt.bpos[e.From], rt.bpos[e.To]
		if dS[pu]+dT[pu] <= C && dS[pv]+dT[pv] <= C {
			wireE = append(wireE, api.CorridorEdge{
				ID: int64(e.ID), From: int64(e.From), To: int64(e.To),
				LengthM: e.Length, TimeS: e.Time, Category: uint8(e.Category),
			})
		}
	}
	sort.Slice(wireV, func(a, b int) bool { return wireV[a].ID < wireV[b].ID })
	sort.Slice(wireE, func(a, b int) bool { return wireE[a].ID < wireE[b].ID })

	fg := &fusedGraph{
		globalV: make([]roadnet.VertexID, len(wireV)),
		globalE: make([]roadnet.EdgeID, len(wireE)),
		local:   make(map[int64]roadnet.VertexID, len(wireV)),
	}
	vertices := make([]roadnet.Vertex, len(wireV))
	for li, v := range wireV {
		fg.globalV[li] = roadnet.VertexID(v.ID)
		fg.local[v.ID] = roadnet.VertexID(li)
		vertices[li] = roadnet.Vertex{ID: roadnet.VertexID(li), Point: geo.Point{Lon: v.Lon, Lat: v.Lat}}
	}
	edges := make([]roadnet.Edge, 0, len(wireE))
	for _, e := range wireE {
		lf, okF := fg.local[e.From]
		lt, okT := fg.local[e.To]
		if !okF || !okT {
			return nil, shardProtocolError(-1, fmt.Sprintf("corridor edge %d references vertex outside the fused corridor", e.ID))
		}
		fg.globalE[len(edges)] = roadnet.EdgeID(e.ID)
		edges = append(edges, roadnet.Edge{
			ID: roadnet.EdgeID(len(edges)), From: lf, To: lt,
			Length: e.LengthM, Time: e.TimeS, Category: roadnet.Category(e.Category),
		})
	}
	if _, ok := fg.local[rs.src]; !ok {
		return nil, shardProtocolError(int(rt.sm.Owner[rs.src]), "corridor response omits the source vertex")
	}
	if _, ok := fg.local[rs.dst]; !ok {
		return nil, shardProtocolError(int(rt.sm.Owner[rs.dst]), "corridor response omits the destination vertex")
	}
	fg.g = roadnet.NewGraphFromData(vertices, edges)
	return fg, nil
}

// enumerate runs the ordinary candidate generation on the fused corridor
// graph — the same code path a single-process server uses, with
// enumeration statistics for the certification check.
func (rt *Router) enumerate(ctx context.Context, fg *fusedGraph, rs resolved) ([]spath.Path, spath.EnumStats, error) {
	cfg := dataset.Config{Strategy: rs.Strategy, K: rs.K, Threshold: rs.Threshold, MaxProbe: rs.MaxProbe}
	return cfg.Candidates(ctx, fg.g, nil, rs.Weight.Weight(), nil, fg.local[rs.src], fg.local[rs.dst])
}
