package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"pathrank/internal/allocpin"
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
	hits := s.obs.hits.Value()
	if total := hits + s.obs.misses.Value(); total > 0 {
		b.ReportMetric(hits/total, "cache_hit_ratio")
	}
}

// BenchmarkServeRank is the serving-layer load test: parallel HTTP clients,
// 16 distinct OD pairs, result cache enabled — the steady-state hot path of a
// deployed ranking service.
func BenchmarkServeRank(b *testing.B) {
	serveRankLoad(b, Config{}, 16)
}

// hitHarness drives one single-query request through Handler() in process,
// reusing the request, its body reader and the response recorder, so what
// it measures is the handler's own work.
type hitHarness struct {
	h    http.Handler
	body []byte
	rd   *bytes.Reader
	req  *http.Request
	rec  *httptest.ResponseRecorder
}

// newHitHarness builds a default-cache server and warms one pair, so every
// later serve is a result-cache hit.
func newHitHarness(tb testing.TB) *hitHarness {
	tb.Helper()
	s, err := New(loadedTestArtifact(tb), Config{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	h := &hitHarness{h: s.Handler(), body: []byte(`{"src":1,"dst":70}`), rec: httptest.NewRecorder()}
	h.rd = bytes.NewReader(h.body)
	h.req = httptest.NewRequest(http.MethodPost, "/v2/rank", h.rd)
	for i, cached := range []bool{false, true} {
		h.serve()
		if h.rec.Code != http.StatusOK || !strings.Contains(h.rec.Body.String(), `"cached":`+map[bool]string{false: "false", true: "true"}[cached]) {
			tb.Fatalf("warm-up request %d: HTTP %d %s", i, h.rec.Code, h.rec.Body)
		}
	}
	return h
}

func (h *hitHarness) serve() {
	h.rd.Reset(h.body)
	h.rec.Body.Reset()
	h.h.ServeHTTP(h.rec, h.req)
}

// TestCacheHitAllocs pins the allocations of a result-cache hit — decode,
// query resolution, cache lookup, the written body — at none, so a change
// that puts work back on the hit path shows here. The body is read into a
// pooled buffer and scanned into a request on the stack, the lookup
// returns stored bytes, and the response is appended into a pooled buffer.
// The http.MaxBytesReader that bounds the body stays on the stack too,
// since the compiler inlines it and devirtualizes its Read.
func TestCacheHitAllocs(t *testing.T) {
	allocpin.Pin(t, allocpin.Count{}, newHitHarness(t).serve)
}

// BenchmarkServeRankHit is one result-cache hit through the in-process
// handler: the steady state of a hot query, without the HTTP transport.
func BenchmarkServeRankHit(b *testing.B) {
	h := newHitHarness(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.serve()
	}
}

// BenchmarkServeRankUncached disables the result cache, so every request
// pays candidate generation plus NN scoring.
func BenchmarkServeRankUncached(b *testing.B) {
	serveRankLoad(b, Config{CacheSize: -1}, 64)
}
