package router

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"pathrank/internal/api"
	"pathrank/internal/par"
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
	req, apiErr := api.DecodeRankRequest(w, r, api.MaxRankBody)
	if apiErr != nil {
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
			api.WriteResult(w, res)
		}
		return
	}
	rt.rankBatch(ctx, w, req.Queries)
}

// rankBatch answers a batch of queries with per-item errors; items run on
// par.For's workers (each item fans out to shards on its own).
func (rt *Router) rankBatch(ctx context.Context, w http.ResponseWriter, queries []api.RankQuery) {
	if len(queries) > rt.cfg.MaxBatch {
		apiErr := api.Invalidf("batch has %d queries, limit is %d", len(queries), rt.cfg.MaxBatch)
		rt.obs.rankErrors.With(apiErr.Code).Inc()
		api.WriteError(w, apiErr)
		return
	}
	items := make([]api.RenderedItem, len(queries))
	par.For(len(queries), func(i int) {
		items[i].Index = i
		items[i].Response, _, items[i].Error = rt.rankSingle(ctx, queries[i], false)
	})
	nerr := 0
	for i := range items {
		if items[i].Error != nil {
			rt.obs.rankErrors.With(items[i].Error.Code).Inc()
			nerr++
		}
	}
	api.WriteBatch(w, items, nerr)
}

// rankSingle answers one query: co-resident pairs are proxied to the
// owning shard, cross-shard pairs are corridor-stitched. With relay set, a
// proxied answer that needs no stamping comes back as the shard's body
// (relayed) instead of a result.
func (rt *Router) rankSingle(ctx context.Context, q api.RankQuery, relay bool) (res *api.Rendered, relayed []byte, apiErr *api.Error) {
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

// proxiedResult is a shard's /v2/rank answer with its paths array kept as
// the shard encoded it, which is what api.Rendered carries.
type proxiedResult struct {
	Src    int64           `json:"src"`
	Dst    int64           `json:"dst"`
	K      int             `json:"k"`
	Cached bool            `json:"cached"`
	Shared bool            `json:"shared"`
	Paths  json.RawMessage `json:"paths"`
	Stats  *api.RankStats  `json:"stats"`
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
// already what api.WriteResult writes for the result it decodes to (the
// shard writes it with api.WriteResult), so with relay set it comes back
// as it came, unread.
func (rt *Router) proxyRank(ctx context.Context, shard int, q api.RankQuery, relay bool) (*api.Rendered, []byte, *api.Error) {
	body, err := api.AppendRankRequest(make([]byte, 0, 128), q)
	if err != nil {
		return nil, nil, &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Message: err.Error()}
	}
	rt.obs.shards[shard].proxy.Inc()
	status, respBody, meta, err := rt.callShard(ctx, shard, "/v2/rank", "application/json", body)
	if err != nil {
		return nil, nil, shardUnavailable(shard, err)
	}
	if status != http.StatusOK {
		return nil, nil, shardHTTPError(shard, status, respBody)
	}
	if relay && !q.Explain {
		return nil, respBody, nil
	}
	var pr proxiedResult
	if err := json.Unmarshal(respBody, &pr); err != nil {
		return nil, nil, shardProtocolError(shard, fmt.Sprintf("unreadable rank response: %v", err))
	}
	if pr.Paths == nil {
		pr.Paths = json.RawMessage("null") // what an absent paths array re-encodes as
	}
	res := &api.Rendered{Src: pr.Src, Dst: pr.Dst, K: pr.K, Cached: pr.Cached, Shared: pr.Shared, Paths: pr.Paths, Stats: pr.Stats}
	if q.Explain {
		if res.Stats == nil {
			res.Stats = &api.RankStats{}
		}
		res.Stats.Route = "co_shard"
		res.Stats.Shards = append(res.Stats.Shards, api.ShardStat{
			Shard: shard, Role: "proxy", Calls: meta.calls, TotalNs: meta.totalNs, Hedged: meta.hedged,
		})
	}
	return res, nil, nil
}
