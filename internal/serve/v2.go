package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
	"pathrank/internal/spath"
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
	rg, err := pathrank.Resolve(req, snap.ranker.Candidates, snap.engine.Kind())
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
// cache, then singleflight, then ctx-aware candidate generation on the
// pooled workspaces, NN scoring and rendering. When the leading computation
// of a shared flight is canceled, its waiters observe the cancellation
// error too; that is the standard singleflight trade-off and only affects
// requests that would have recomputed identical work.
func (s *Server) execQuery(ctx context.Context, snap *snapshot, cq coreQuery) queryOutcome {
	if paths, ok := snap.cache.get(cq.key); ok {
		s.obs.hits.Inc()
		return queryOutcome{paths: paths, cached: true}
	}
	s.obs.misses.Inc()
	var stats pathrank.RankStats
	paths, err, shared := snap.flight.do(ctx, cq.key, func() ([]byte, error) {
		genStart := time.Now()
		cands, st, err := snap.ranker.CandidatesFor(ctx, cq.req)
		if err != nil {
			return nil, err
		}
		st.GenNanos = time.Since(genStart).Nanoseconds()
		scoreStart := time.Now()
		scores := snap.art.Model.ScoreBatch(cands)
		st.ScoreNanos = time.Since(scoreStart).Nanoseconds()
		stats = st
		return snap.render(cq.key, pathrank.RankScored(cands, scores))
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

// render encodes a fresh ranking's wire paths — the one encoding it ever
// gets — and stores the bytes in the result cache.
func (snap *snapshot) render(key queryKey, ranked []pathrank.Ranked) ([]byte, error) {
	paths, err := json.Marshal(rankedPaths(snap, ranked))
	if err != nil {
		return nil, err
	}
	snap.cache.add(key, paths)
	return paths, nil
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

	var req api.RankRequest
	if apiErr := api.DecodeJSON(w, r, maxRankBody, &req); apiErr != nil {
		s.rankError(w, apiErr)
		return
	}

	// One snapshot for the whole request (batch included): a hot swap
	// installed mid-request must not mix two models' state.
	snap := s.snap.Load()
	defer s.obs.observeRank(startReq)

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

// rankV2Batch answers a batch of queries with per-item errors and one NN
// scoring sweep over the union of all uncached candidate sets. Candidate
// generation for the uncached items runs concurrently on pooled
// workspaces, bounded by GOMAXPROCS, so a batch is no slower than the same
// queries issued as parallel singles; a deadline expiring mid-batch fails
// the unfinished items with the deadline code. Batch items bypass the
// singleflight group: collapsing is the cache's job once the batch lands,
// and per-item blocking on foreign flights would serialize the sweep.
func (s *Server) rankV2Batch(ctx context.Context, w http.ResponseWriter, snap *snapshot, queries []api.RankQuery) {
	if len(queries) > s.cfg.MaxBatch {
		s.rankError(w, api.Invalidf("batch has %d queries, limit is %d", len(queries), s.cfg.MaxBatch))
		return
	}
	s.obs.batchQueries.Observe(float64(len(queries)))
	type pendingItem struct {
		idx   int
		cq    coreQuery
		cands []spath.Path
		stats pathrank.RankStats
		paths []byte
		err   error
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
	nerr := 0
	for i, q := range queries {
		items[i].Index = i
		cq, apiErr := s.buildQuery(snap, q)
		if apiErr != nil {
			s.obs.rankErrors.With(apiErr.Code).Inc()
			items[i].Error = apiErr
			nerr++
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
		s.obs.misses.Inc()
		p := &pendingItem{idx: i, cq: cq}
		leaders[cq.key] = p
		pend = append(pend, p)
	}

	// Generate all uncached candidate sets concurrently; each worker owns
	// its pooled workspaces, and items only write their own entry.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pend) {
		workers = len(pend)
	}
	if workers > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for _, p := range pend {
			wg.Add(1)
			go func(p *pendingItem) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				genStart := time.Now()
				p.cands, p.stats, p.err = snap.ranker.CandidatesFor(ctx, p.cq.req)
				p.stats.GenNanos = time.Since(genStart).Nanoseconds()
			}(p)
		}
		wg.Wait()
	} else {
		for _, p := range pend {
			genStart := time.Now()
			p.cands, p.stats, p.err = snap.ranker.CandidatesFor(ctx, p.cq.req)
			p.stats.GenNanos = time.Since(genStart).Nanoseconds()
		}
	}

	var all []spath.Path
	scored := pend[:0]
	for _, p := range pend {
		if p.err != nil {
			items[p.idx].Error = pathrank.APIError(p.err)
			s.obs.rankErrors.With(items[p.idx].Error.Code).Inc()
			nerr++
			continue
		}
		scored = append(scored, p)
		all = append(all, p.cands...)
	}

	// One NN sweep over the whole batch, then split per item.
	var scoreNs int64
	var scores []float64
	if len(all) > 0 {
		scoreStart := time.Now()
		scores = snap.art.Model.ScoreBatch(all)
		scoreNs = time.Since(scoreStart).Nanoseconds()
	}
	off := 0
	for _, p := range scored {
		n := len(p.cands)
		p.paths, p.err = snap.render(p.cq.key, pathrank.RankScored(p.cands, scores[off:off+n:off+n]))
		off += n
		if p.err != nil {
			items[p.idx].Error = pathrank.APIError(p.err)
			s.obs.rankErrors.With(items[p.idx].Error.Code).Inc()
			nerr++
			continue
		}
		// The sweep is shared; attribute its cost to every item so
		// explain output stays honest about what one query paid for.
		p.stats.ScoreNanos = scoreNs
		res := rendered(queries[p.idx], p.cq, queryOutcome{paths: p.paths, stats: &p.stats})
		items[p.idx].Response = &res
	}
	for _, f := range followers {
		if f.leader.err != nil {
			items[f.idx].Error = pathrank.APIError(f.leader.err)
			s.obs.rankErrors.With(items[f.idx].Error.Code).Inc()
			nerr++
			continue
		}
		res := rendered(queries[f.idx], f.leader.cq, queryOutcome{paths: f.leader.paths, shared: true})
		items[f.idx].Response = &res
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

// rankedPaths renders a ranking as wire paths.
func rankedPaths(snap *snapshot, ranked []pathrank.Ranked) []api.RankedPath {
	paths := make([]api.RankedPath, len(ranked))
	for i, rk := range ranked {
		verts := make([]int64, len(rk.Path.Vertices))
		for j, v := range rk.Path.Vertices {
			verts[j] = int64(v)
		}
		paths[i] = api.RankedPath{
			Rank:     i + 1,
			Score:    rk.Score,
			LengthM:  rk.Path.Length(snap.art.Graph),
			TimeS:    rk.Path.Time(snap.art.Graph),
			Hops:     rk.Path.Len(),
			Vertices: verts,
		}
	}
	return paths
}
