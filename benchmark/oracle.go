package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// sampled is one retained response of the timed phase.
type sampled struct {
	index int
	body  []byte
}

// oracle answers a query with the plain pipeline: no prepared engine
// (pooled Dijkstra), per-path scoring, one goroutine, the artifact as it
// was built on the heap. Every engine, kernel, batching mode and topology
// promises exactly this answer, paths and scores bit for bit.
type oracle struct {
	whole  *pathrank.Ranker
	shards []*pathrank.Ranker // per shard, on its induced subgraph; nil unless sharded
	owner  []int32
}

func newOracle(w *world) (*oracle, error) {
	o := &oracle{whole: plainRanker(w.heap)}
	if w.shardMap != nil {
		if err := w.loadShardHeaps(); err != nil {
			return nil, err
		}
		for _, a := range w.shardHeap {
			o.shards = append(o.shards, plainRanker(a))
		}
		o.owner = w.shardMap.Owner
	}
	return o, nil
}

func plainRanker(a *pathrank.Artifact) *pathrank.Ranker {
	r := pathrank.NewRanker(a.Graph, a.Model)
	r.Candidates = a.Candidates
	return r
}

// rank returns what the plain pipeline answers for q. A co-resident query
// of the sharded tier is answered on the owning shard's subgraph (that is
// the router's documented semantics); everything else on the whole graph,
// which is also what the unsharded server would say.
func (o *oracle) rank(q api.RankQuery) ([]pathrank.Ranked, error) {
	strategy, err := pathrank.ParseStrategyChoice(q.Strategy)
	if err != nil {
		return nil, err
	}
	ranker := o.whole
	if o.owner != nil && o.owner[q.Src] == o.owner[q.Dst] {
		ranker = o.shards[o.owner[q.Src]]
	}
	cands, _, err := ranker.CandidatesFor(context.Background(), pathrank.RankRequest{
		Src: roadnet.VertexID(q.Src), Dst: roadnet.VertexID(q.Dst),
		K: q.K, Strategy: strategy, Engine: pathrank.EngineNone,
	})
	if err != nil {
		return nil, err
	}
	return pathrank.RankScored(cands, ranker.Model.ScoreBatchPerPath(cands)), nil
}

// checkResult reports what is wrong with one served ranking, or nil.
func (o *oracle) checkResult(q api.RankQuery, res *api.RankResult) error {
	if res == nil {
		return fmt.Errorf("%d->%d: no result", q.Src, q.Dst)
	}
	if len(res.Paths) == 0 {
		return fmt.Errorf("%d->%d: empty ranking", q.Src, q.Dst)
	}
	for i := 1; i < len(res.Paths); i++ {
		if res.Paths[i].Score > res.Paths[i-1].Score {
			return fmt.Errorf("%d->%d: ranking not sorted at %d", q.Src, q.Dst, i)
		}
	}
	want, err := o.rank(q)
	if err != nil {
		return fmt.Errorf("%d->%d: oracle: %w", q.Src, q.Dst, err)
	}
	if len(want) != len(res.Paths) {
		return fmt.Errorf("%d->%d: %d paths, oracle has %d", q.Src, q.Dst, len(res.Paths), len(want))
	}
	for i, w := range want {
		got := res.Paths[i]
		if math.Float64bits(got.Score) != math.Float64bits(w.Score) {
			return fmt.Errorf("%d->%d: path %d score %v, oracle %v", q.Src, q.Dst, i, got.Score, w.Score)
		}
		if len(got.Vertices) != len(w.Path.Vertices) {
			return fmt.Errorf("%d->%d: path %d has %d vertices, oracle %d", q.Src, q.Dst, i, len(got.Vertices), len(w.Path.Vertices))
		}
		for j, v := range w.Path.Vertices {
			if got.Vertices[j] != int64(v) {
				return fmt.Errorf("%d->%d: path %d differs from the oracle at vertex %d", q.Src, q.Dst, i, j)
			}
		}
	}
	return nil
}

// decodeResults parses a 200 response of req into one result per query;
// a failed batch item is a nil entry.
func decodeResults(req *request, body []byte) ([]*api.RankResult, error) {
	if !req.Batch {
		var res api.RankResult
		if err := json.Unmarshal(body, &res); err != nil {
			return nil, err
		}
		return []*api.RankResult{&res}, nil
	}
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(req.Queries) {
		return nil, fmt.Errorf("batch answered %d of %d queries", len(br.Results), len(req.Queries))
	}
	out := make([]*api.RankResult, len(req.Queries))
	for _, it := range br.Results {
		if it.Index < 0 || it.Index >= len(out) {
			return nil, fmt.Errorf("batch item index %d out of range", it.Index)
		}
		out[it.Index] = it.Response
	}
	return out, nil
}

// verify checks every sampled response and returns the number of failed
// queries with the first few reasons.
func (o *oracle) verify(p *plan, samples []sampled) (failed int, reasons []string) {
	note := func(err error) {
		failed++
		if len(reasons) < 5 {
			reasons = append(reasons, err.Error())
		}
	}
	for _, s := range samples {
		req := p.Requests[s.index]
		results, err := decodeResults(req, s.body)
		if err != nil {
			for range req.Queries {
				note(fmt.Errorf("request %d: %w", s.index, err))
			}
			continue
		}
		for i, q := range req.Queries {
			if err := o.checkResult(q, results[i]); err != nil {
				note(fmt.Errorf("request %d: %w", s.index, err))
			}
		}
	}
	return failed, reasons
}
