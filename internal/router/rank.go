package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
)

// resolved is a validated query with its effective candidate regime,
// resolved by the same rule set (internal/pathrank) a single-process
// server applies — against the shard map instead of a local snapshot.
type resolved struct {
	src, dst int64
	pathrank.Regime
}

// resolve validates q against the shard map and the router limits and
// resolves its regime, by the same rules a single server applies.
func (rt *Router) resolve(q api.RankQuery) (resolved, *api.Error) {
	req, err := pathrank.RequestFromQuery(q, rt.sm.NumVertices, rt.cfg.MaxK)
	if err != nil {
		return resolved{}, pathrank.APIError(err)
	}
	rg, err := pathrank.Resolve(req, rt.sm.Candidates)
	if err != nil {
		return resolved{}, pathrank.APIError(err)
	}
	return resolved{src: q.Src, dst: q.Dst, Regime: rg}, nil
}

func (rt *Router) handleRank(w http.ResponseWriter, r *http.Request) {
	rt.obs.requests.With("/v2/rank").Inc()
	var req api.RankRequest
	if apiErr := api.DecodeJSON(w, r, maxRankBody, &req); apiErr != nil {
		rt.obs.rankErrors.With(apiErr.Code).Inc()
		api.WriteError(w, apiErr)
		return
	}
	ctx, cancel := api.RequestContext(r, req.TimeoutMs, rt.cfg.MaxTimeout)
	defer cancel()
	if req.Queries == nil {
		res, relayed, apiErr := rt.rankSingle(ctx, req.RankQuery, true)
		switch {
		case apiErr != nil:
			rt.obs.rankErrors.With(apiErr.Code).Inc()
			api.WriteError(w, apiErr)
		case relayed != nil:
			api.WriteRelayed(w, relayed)
		default:
			api.WriteJSON(w, http.StatusOK, res)
		}
		return
	}
	rt.rankBatch(ctx, w, req.Queries)
}

// rankBatch answers a batch of queries with per-item errors; items run
// concurrently, bounded by GOMAXPROCS (each item fans out to shards on
// its own).
func (rt *Router) rankBatch(ctx context.Context, w http.ResponseWriter, queries []api.RankQuery) {
	if len(queries) > rt.cfg.MaxBatch {
		apiErr := api.Invalidf("batch has %d queries, limit is %d", len(queries), rt.cfg.MaxBatch)
		rt.obs.rankErrors.With(apiErr.Code).Inc()
		api.WriteError(w, apiErr)
		return
	}
	items := make([]api.BatchItem, len(queries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			items[i].Index = i
			res, _, apiErr := rt.rankSingle(ctx, queries[i], false)
			if apiErr != nil {
				items[i].Error = apiErr
				return
			}
			items[i].Response = res
		}(i)
	}
	wg.Wait()
	nerr := 0
	for i := range items {
		if items[i].Error != nil {
			rt.obs.rankErrors.With(items[i].Error.Code).Inc()
			nerr++
		}
	}
	api.WriteJSON(w, http.StatusOK, api.BatchResponse{Results: items, Errors: nerr})
}

// rankSingle answers one query: co-resident pairs are proxied to the
// owning shard, cross-shard pairs are corridor-stitched. With relay set, a
// proxied answer that needs no stamping comes back as the shard's body
// (relayed) instead of a decoded result.
func (rt *Router) rankSingle(ctx context.Context, q api.RankQuery, relay bool) (res *api.RankResult, relayed []byte, apiErr *api.Error) {
	rs, apiErr := rt.resolve(q)
	if apiErr != nil {
		return nil, nil, apiErr
	}
	i := int(rt.sm.Owner[q.Src])
	j := int(rt.sm.Owner[q.Dst])
	if i == j {
		rt.obs.routed.With("co_shard").Inc()
		return rt.proxyRank(ctx, i, q, relay)
	}
	rt.obs.routed.With("cross_shard").Inc()
	res, apiErr = rt.crossShard(ctx, q, rs, i, j)
	return res, nil, apiErr
}

// proxyRank forwards a co-resident query to the owning shard's own
// /v2/rank and stamps the routing stats in. The shard enumerates on its
// induced subgraph: the geometric partition keeps co-resident
// neighborhoods whole, so this is the intended serving semantics —
// candidates that would detour through a neighboring shard's territory
// and come back are not considered (unlike cross-shard queries, whose
// corridor stitching is exact; see docs/SHARDING.md).
//
// Without explain there is nothing to stamp, and the shard's 200 body is
// already what WriteJSON writes for the result it decodes to (the shard
// writes it with api.WriteResult), so with relay set it comes back as it
// came, unread.
func (rt *Router) proxyRank(ctx context.Context, shard int, q api.RankQuery, relay bool) (*api.RankResult, []byte, *api.Error) {
	body, err := json.Marshal(api.RankRequest{RankQuery: q})
	if err != nil {
		return nil, nil, &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Message: err.Error()}
	}
	rt.obs.shardCalls.With(fmt.Sprint(shard), "proxy").Inc()
	status, respBody, meta, err := rt.callShard(ctx, shard, http.MethodPost, "/v2/rank", "application/json", body)
	if err != nil {
		return nil, nil, shardUnavailable(shard, err)
	}
	if status != http.StatusOK {
		return nil, nil, shardHTTPError(shard, status, respBody)
	}
	if relay && !q.Explain {
		return nil, respBody, nil
	}
	var res api.RankResult
	if err := json.Unmarshal(respBody, &res); err != nil {
		return nil, nil, shardProtocolError(shard, fmt.Sprintf("unreadable rank response: %v", err))
	}
	if q.Explain {
		if res.Stats == nil {
			res.Stats = &api.RankStats{}
		}
		res.Stats.Route = "co_shard"
		res.Stats.Shards = append(res.Stats.Shards, api.ShardStat{
			Shard: shard, Role: "proxy", Calls: meta.calls, TotalNs: meta.totalNs, Hedged: meta.hedged,
		})
	}
	return &res, nil, nil
}
