package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
)

// benchPairs builds a rotation of query pairs spread across the graph so a
// load test exercises many distinct candidate generations.
func benchPairs(art *pathrank.Artifact, n int) []api.RankQuery {
	v := art.Graph.NumVertices()
	pairs := make([]api.RankQuery, n)
	for i := range pairs {
		src := (i * 13) % v
		dst := (v - 1 - (i*29)%v) % v
		if src == dst {
			dst = (dst + 1) % v
		}
		pairs[i] = api.RankQuery{Src: int64(src), Dst: int64(dst)}
	}
	return pairs
}

// serveRankLoad drives POST /v2/rank with parallel clients over a rotation
// of query pairs and reports request throughput.
func serveRankLoad(b *testing.B, cfg Config, distinctPairs int) {
	art := loadedTestArtifact(b)
	s, err := New(art, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	pairs := benchPairs(art, distinctPairs)
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 64

	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := pairs[int(next.Add(1))%len(pairs)]
			body, _ := json.Marshal(req)
			resp, err := client.Post(ts.URL+"/v2/rank", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				resp.Body.Close()
				return
			}
			var rr api.RankResult
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				b.Error(err)
				resp.Body.Close()
				return
			}
			resp.Body.Close()
			if len(rr.Paths) == 0 {
				b.Error("empty ranking")
				return
			}
		}
	})
	b.StopTimer()
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "req/s")
	}
	hits := s.obs.cacheEvents.With(cacheHit).Value()
	if total := hits + s.obs.cacheEvents.With(cacheMiss).Value(); total > 0 {
		b.ReportMetric(hits/total, "cache_hit_ratio")
	}
}

// BenchmarkServeRank is the serving-layer load test: parallel HTTP clients,
// 16 distinct OD pairs, LRU cache enabled — the steady-state hot path of a
// deployed ranking service.
func BenchmarkServeRank(b *testing.B) {
	serveRankLoad(b, Config{}, 16)
}

// BenchmarkServeRankUncached disables the result cache, so every request
// pays candidate generation plus NN scoring.
func BenchmarkServeRankUncached(b *testing.B) {
	serveRankLoad(b, Config{CacheSize: -1}, 64)
}
