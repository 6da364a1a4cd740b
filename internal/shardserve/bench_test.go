package shardserve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/router"
	"pathrank/internal/serve"
	"pathrank/internal/spath"
)

// shardCall is one recorded sub-query body and the shard it went to.
type shardCall struct {
	shard int
	path  string
	body  []byte
}

// traffic is what the shard workers of the served world receive while the
// router answers cross-shard queries: the decoded sub-queries in arrival
// order, with each shard's graph, metadata and weight tables.
type traffic struct {
	graphs   []*roadnet.Graph
	infos    []*pathrank.ShardInfo
	weights  [][2][]float64 // [shard][length, time]
	corridor []recorded[pathrank.CorridorQuery]
}

type recorded[Q any] struct {
	shard int
	q     Q
}

func (tr *traffic) table(shard int, w pathrank.WeightKind) []float64 {
	if w == pathrank.WeightTime {
		return tr.weights[shard][1]
	}
	return tr.weights[shard][0]
}

var (
	servedOnce    sync.Once
	servedTraffic *traffic
	servedErr     error
)

// recordServedTraffic stands the sharded tier up on the served world of
// benchmark/ (56×56 grid, world seed 1, four shards, D-TkDI k=5 θ=0.8, an
// untrained DefaultConfig model), sends 150 seeded cross-shard queries
// 4–12 grid hops apart through the router under alternating metrics, and
// records every sub-query the workers receive. It runs once per process.
func recordServedTraffic(b *testing.B) *traffic {
	servedOnce.Do(func() { servedTraffic, servedErr = recordTraffic(b) })
	if servedErr != nil {
		b.Fatal(servedErr)
	}
	return servedTraffic
}

func recordTraffic(b *testing.B) (*traffic, error) {
	g := servedGraph(b)
	model, err := pathrank.New(g.NumVertices(), pathrank.DefaultConfig())
	if err != nil {
		return nil, err
	}
	art := &pathrank.Artifact{
		Graph: g, Model: model,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
	}
	dir := b.TempDir()
	const parts = 4
	if _, err := partition.BuildBundle(art, dir, parts, nil); err != nil {
		return nil, err
	}
	tr := &traffic{}
	var mu sync.Mutex
	var calls []shardCall
	urls := make([]string, parts)
	var servers []*serve.Server
	for i := 0; i < parts; i++ {
		sart, err := pathrank.LoadArtifactFile(filepath.Join(dir, partition.ShardArtifactName(i)))
		if err != nil {
			return nil, err
		}
		srv, err := serve.New(sart, serve.Config{CacheSize: -1})
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		servers = append(servers, srv)
		ss, err := New(srv)
		if err != nil {
			return nil, err
		}
		h := ss.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			mu.Lock()
			calls = append(calls, shardCall{shard: i, path: r.URL.Path, body: body})
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()
		urls[i] = ts.URL
		tr.graphs = append(tr.graphs, sart.Graph)
		tr.infos = append(tr.infos, sart.Shard)
	}
	sm, err := partition.LoadShardMapFile(dir)
	if err != nil {
		return nil, err
	}
	rt, err := router.New(sm, router.Config{Shards: urls, HedgeAfter: -1})
	if err != nil {
		return nil, err
	}
	handler := rt.Handler()

	const side = 56 // roadnet.Generate numbers the grid row-major before the ring
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 150; {
		hops := 4 + rng.Intn(9)
		dr := rng.Intn(hops + 1)
		r0, c0 := rng.Intn(side), rng.Intn(side)
		r1, c1 := r0+dr*(1-2*rng.Intn(2)), c0+(hops-dr)*(1-2*rng.Intn(2))
		if r1 < 0 || r1 >= side || c1 < 0 || c1 >= side {
			continue
		}
		src, dst := int64(r0*side+c0), int64(r1*side+c1)
		if sm.Owner[src] == sm.Owner[dst] {
			continue
		}
		weight := [2]string{"length", "time"}[n%2]
		n++
		body, _ := json.Marshal(api.RankRequest{RankQuery: api.RankQuery{Src: src, Dst: dst, Weight: weight}})
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/rank", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("%d->%d: HTTP %d %s", src, dst, rec.Code, rec.Body.Bytes())
		}
	}

	for _, srv := range servers {
		sn := srv.PinSnapshot()
		tr.weights = append(tr.weights, [2][]float64{sn.Weights(pathrank.WeightLength), sn.Weights(pathrank.WeightTime)})
	}
	for _, c := range calls {
		if c.path == "/shard/corridor" {
			q, err := pathrank.DecodeCorridorQuery(c.body)
			if err != nil {
				return nil, err
			}
			tr.corridor = append(tr.corridor, recorded[pathrank.CorridorQuery]{c.shard, q})
		}
	}
	return tr, nil
}

// BenchmarkShardCorridor runs the corridor extractions of /shard/corridor
// (sweeps, assembly and encoding, not HTTP) that the router asked for while
// it answered 150 cross-shard queries on the served world. One op is one
// pass over all of them in arrival order, so pops/op (the vertices the
// sweeps settled, plus at most one stopping pop per sweep), B/op and
// allocs/op are exact and the same on any machine; calls/op is the number
// of extractions a pass holds.
func BenchmarkShardCorridor(b *testing.B) {
	tr := recordServedTraffic(b)
	ws := spath.NewWorkspace()
	var fp [sha256.Size]byte
	b.ReportAllocs()
	b.ResetTimer()
	pops := ws.Pops()
	for i := 0; i < b.N; i++ {
		for _, c := range tr.corridor {
			corridor(ws, tr.graphs[c.shard], tr.infos[c.shard], fp, c.q, tr.table(c.shard, c.q.Weight))
		}
	}
	b.ReportMetric(float64(ws.Pops()-pops)/float64(b.N), "pops/op")
	b.ReportMetric(float64(len(tr.corridor)), "calls/op")
}
