package serve

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
)

// This file implements POST /v2/rank, the context-aware, per-request-
// configurable query surface.

// coreQuery is a validated query ready to execute against a snapshot: the
// core RankRequest plus the cache/singleflight key of its resolved regime.
type coreQuery struct {
	key queryKey
	req pathrank.RankRequest
}

// buildQuery validates q against the snapshot and the server limits and
// resolves its regime, both through the one rule set in internal/pathrank.
func (s *Server) buildQuery(snap *snapshot, q api.RankQuery) (coreQuery, *api.Error) {
	req, err := pathrank.RequestFromQuery(q, snap.art.Graph.NumVertices(), s.cfg.MaxK)
	if err != nil {
		return coreQuery{}, pathrank.APIError(err)
	}
	rg, err := pathrank.Resolve(req, snap.ranker.Candidates)
	if err != nil {
		return coreQuery{}, pathrank.APIError(err)
	}
	return coreQuery{key: keyOf(req, rg), req: req}, nil
}

// queryOutcome is the result of executing one core query.
type queryOutcome struct {
	// paths is the ranking's rendered paths array (api.Rendered.Paths).
	paths []byte
	// stats is non-nil only when this caller ranked the query itself
	// (neither cached nor shared) — cached and shared results report no
	// timing.
	stats          *pathrank.RankStats
	cached, shared bool
	err            error
}

// execQuery answers one validated query against a snapshot: the result
// cache, then singleflight, then Ranker.Rank (ctx-aware candidate
// generation on the pooled workspaces and NN scoring) and rendering. When
// the leading computation of a shared flight is canceled, its waiters
// observe the cancellation error too; that is the standard singleflight
// trade-off and only affects requests that would have recomputed
// identical work.
func (s *Server) execQuery(ctx context.Context, snap *snapshot, cq coreQuery) queryOutcome {
	if paths, ok := snap.cache.get(cq.key); ok {
		s.obs.hits.Inc()
		return queryOutcome{paths: paths, cached: true}
	}
	s.obs.misses.Inc()
	var stats pathrank.RankStats
	paths, err, shared := snap.flight.do(ctx, cq.key, func() ([]byte, error) {
		res, err := snap.ranker.Rank(ctx, cq.req)
		if err != nil {
			return nil, err
		}
		stats = res.Stats
		b, err := snap.render(res.Paths)
		if err != nil {
			return nil, err
		}
		switch snap.cache.add(cq.key, b) {
		case addEvicted:
			s.obs.evicted.Inc()
		case addRejected:
			s.obs.rejected.Inc()
		}
		return b, nil
	})
	if shared {
		s.obs.sharedHits.Inc()
	}
	if err != nil {
		return queryOutcome{err: err, shared: shared}
	}
	if shared {
		return queryOutcome{paths: paths, shared: true}
	}
	return queryOutcome{paths: paths, stats: &stats}
}

// render encodes a fresh ranking's wire paths, the one encoding it ever
// gets, for the caller to store in the result cache. It appends the JSON of
// the ranking's []api.RankedPath by hand, byte-for-byte what json.Marshal
// writes for it (TestRenderMatchesMarshal), floats through api.AppendFloat.
func (snap *snapshot) render(ranked []pathrank.Ranked) ([]byte, error) {
	g := snap.art.Graph
	// A path's fixed fields take under 128 bytes and a vertex ID with its
	// comma rarely more than 6, so the buffer seldom grows.
	size := 2
	for _, rk := range ranked {
		size += 128 + 6*len(rk.Path.Vertices)
	}
	b := make([]byte, 0, size)
	b = append(b, '[')
	var err error
	for i, rk := range ranked {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"rank":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"score":`...)
		if b, err = api.AppendFloat(b, rk.Score); err != nil {
			return nil, err
		}
		b = append(b, `,"length_m":`...)
		if b, err = api.AppendFloat(b, rk.Path.Length(g)); err != nil {
			return nil, err
		}
		b = append(b, `,"time_s":`...)
		if b, err = api.AppendFloat(b, rk.Path.Time(g)); err != nil {
			return nil, err
		}
		b = append(b, `,"hops":`...)
		b = strconv.AppendInt(b, int64(rk.Path.Len()), 10)
		b = append(b, `,"vertices":[`...)
		for j, v := range rk.Path.Vertices {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, "]}"...)
	}
	b = append(b, ']')
	return b, nil
}

func (s *Server) handleRankV2(w http.ResponseWriter, r *http.Request) {
	s.obs.rankRequests.Inc()
	startReq := time.Now()

	// A cap of n admits n concurrent requests: this one is counted first.
	inFlight := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	if s.cfg.MaxInFlight > 0 && inFlight > int64(s.cfg.MaxInFlight) {
		s.obs.shed.Inc()
		s.rankError(w, &api.Error{
			Code: api.CodeBacklog, Message: "server is at its concurrent-rank capacity; retry shortly",
		})
		return
	}

	req, apiErr := api.DecodeRankRequest(w, r, maxRankBody)
	if apiErr != nil {
		s.rankError(w, apiErr)
		return
	}

	// One snapshot for the whole request (batch included): a hot swap
	// installed mid-request must not mix two models' state.
	snap := s.snap.Load()
	defer func() { s.obs.rankLatency.Observe(time.Since(startReq).Seconds()) }()

	ctx, cancel := api.RequestContext(r, req.TimeoutMs, s.cfg.MaxTimeout)
	defer cancel()

	// A present-but-empty "queries" array is an empty batch (answered as
	// such), not a single query: only an absent key selects the inline
	// single-query form.
	if req.Queries == nil {
		s.rankV2Single(ctx, w, snap, req.RankQuery)
		return
	}
	s.rankV2Batch(ctx, w, snap, req.Queries)
}

// rankError counts a failed rank request by its code and answers it with
// the typed envelope.
func (s *Server) rankError(w http.ResponseWriter, e *api.Error) {
	s.obs.rankErrors.With(e.Code).Inc()
	api.WriteError(w, e)
}

func (s *Server) rankV2Single(ctx context.Context, w http.ResponseWriter, snap *snapshot, q api.RankQuery) {
	cq, apiErr := s.buildQuery(snap, q)
	if apiErr != nil {
		s.rankError(w, apiErr)
		return
	}
	out := s.execQuery(ctx, snap, cq)
	if out.err != nil {
		s.rankError(w, pathrank.APIError(out.err))
		return
	}
	res := rendered(q, cq, out)
	api.WriteResult(w, &res)
}

// rankV2Batch answers a batch of queries with per-item errors. A batch is
// its queries: each uncached item runs through execQuery (cache,
// singleflight, Ranker.Rank, render) on its own worker, bounded by
// GOMAXPROCS, so a batch is no slower than the same queries issued as
// parallel singles; a deadline expiring mid-batch fails the unfinished
// items with the deadline code.
func (s *Server) rankV2Batch(ctx context.Context, w http.ResponseWriter, snap *snapshot, queries []api.RankQuery) {
	if len(queries) > s.cfg.MaxBatch {
		s.rankError(w, api.Invalidf("batch has %d queries, limit is %d", len(queries), s.cfg.MaxBatch))
		return
	}
	s.obs.batchQueries.Observe(float64(len(queries)))
	type pendingItem struct {
		idx int
		cq  coreQuery
		out queryOutcome
	}
	items := make([]api.RenderedItem, len(queries))
	var pend []*pendingItem
	// Duplicate queries inside one batch (a naive client fan-in) compute
	// once: followers reuse their leader's ranking, marked shared.
	leaders := make(map[queryKey]*pendingItem)
	type follower struct {
		idx    int
		leader *pendingItem
	}
	var followers []follower
	for i, q := range queries {
		items[i].Index = i
		cq, apiErr := s.buildQuery(snap, q)
		if apiErr != nil {
			items[i].Error = apiErr
			continue
		}
		if paths, ok := snap.cache.get(cq.key); ok {
			s.obs.hits.Inc()
			res := rendered(q, cq, queryOutcome{paths: paths, cached: true})
			items[i].Response = &res
			continue
		}
		if lead, ok := leaders[cq.key]; ok {
			// A follower shares its leader's computation, the in-batch
			// analogue of a singleflight-shared answer.
			s.obs.sharedHits.Inc()
			followers = append(followers, follower{idx: i, leader: lead})
			continue
		}
		p := &pendingItem{idx: i, cq: cq}
		leaders[cq.key] = p
		pend = append(pend, p)
	}

	// Each worker takes the next leader until none is left; items only
	// write their own entry. One that has not started when the deadline
	// passes fails with it.
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(pend)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pend) {
					return
				}
				p := pend[i]
				if err := ctx.Err(); err != nil {
					p.out = queryOutcome{err: err}
				} else {
					p.out = s.execQuery(ctx, snap, p.cq)
				}
			}
		}()
	}
	wg.Wait()

	for _, p := range pend {
		if p.out.err == nil {
			res := rendered(queries[p.idx], p.cq, p.out)
			items[p.idx].Response = &res
		} else {
			items[p.idx].Error = pathrank.APIError(p.out.err)
		}
	}
	for _, f := range followers {
		if f.leader.out.err != nil {
			items[f.idx].Error = pathrank.APIError(f.leader.out.err)
			continue
		}
		res := rendered(queries[f.idx], f.leader.cq, queryOutcome{paths: f.leader.out.paths, shared: true})
		items[f.idx].Response = &res
	}
	nerr := 0
	for i := range items {
		if items[i].Error != nil {
			s.obs.rankErrors.With(items[i].Error.Code).Inc()
			nerr++
		}
	}
	api.WriteBatch(w, items, nerr)
}

// rendered is one successful outcome in the v2 shape; src, dst and k echo
// the request's own fields. It returns a value so a single-query response
// keeps it on the stack.
func rendered(q api.RankQuery, cq coreQuery, out queryOutcome) api.Rendered {
	res := api.Rendered{
		Src:    q.Src,
		Dst:    q.Dst,
		K:      q.K,
		Cached: out.cached,
		Shared: out.shared,
		Paths:  out.paths,
	}
	if cq.req.Explain && out.stats != nil {
		res.Stats = out.stats.Wire()
	}
	return res
}
