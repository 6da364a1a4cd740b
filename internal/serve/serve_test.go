package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/node2vec"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/traj"
)

var (
	artOnce sync.Once
	artErr  error
	testArt *pathrank.Artifact
)

// loadedTestArtifact trains a small pipeline once, saves it as a bundle,
// and returns the re-loaded artifact — so every serve test runs against an
// artifact that actually went through the persistence layer, as production
// serving does.
func loadedTestArtifact(t testing.TB) *pathrank.Artifact {
	t.Helper()
	artOnce.Do(func() {
		g, err := roadnet.Generate(roadnet.GenConfig{
			Rows: 9, Cols: 9, SpacingM: 250, JitterFrac: 0.2,
			RemoveFrac: 0.08, ArterialEvery: 4, Motorway: false,
			Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 11,
		})
		if err != nil {
			artErr = err
			return
		}
		drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: 5, Seed: 12})
		trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{TripsPerDriver: 2, MinHops: 4, Seed: 13})
		if err != nil {
			artErr = err
			return
		}
		queries, err := dataset.Generate(g, trips, dataset.Config{
			Strategy: dataset.DTkDI, K: 4, Threshold: 0.8, IncludeTruth: true,
		})
		if err != nil {
			artErr = err
			return
		}
		mcfg := pathrank.Config{EmbeddingDim: 12, Hidden: 10, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 7}
		model, err := pathrank.New(g.NumVertices(), mcfg)
		if err != nil {
			artErr = err
			return
		}
		emb := node2vec.Embed(g, node2vec.DefaultWalkConfig(), node2vec.DefaultTrainConfig(mcfg.EmbeddingDim))
		if err := model.InitEmbeddings(emb); err != nil {
			artErr = err
			return
		}
		if _, err := model.Train(queries, pathrank.TrainConfig{Epochs: 2, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
			artErr = err
			return
		}
		art := &pathrank.Artifact{
			Graph: g, Model: model,
			Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 4, Threshold: 0.8},
		}
		var buf bytes.Buffer
		if err := pathrank.SaveArtifact(&buf, art); err != nil {
			artErr = err
			return
		}
		testArt, artErr = pathrank.LoadArtifact(bytes.NewReader(buf.Bytes()))
	})
	if artErr != nil {
		t.Fatalf("build test artifact: %v", artErr)
	}
	return testArt
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerFor(t, loadedTestArtifact(t), cfg)
}

// newTestServerFor is newTestServer on a given artifact.
func newTestServerFor(t testing.TB, art *pathrank.Artifact, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postRank(t testing.TB, url string, req api.RankQuery) (*http.Response, api.RankResult) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v2/rank", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr api.RankResult
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, rr
}

// TestServeRankMatchesInProcess is the acceptance test: rankings served
// over HTTP from a loaded artifact are bit-identical to in-process
// Ranker.Rank results (encoding/json float64 round-trips exactly).
func TestServeRankMatchesInProcess(t *testing.T) {
	art := loadedTestArtifact(t)
	_, ts := newTestServer(t, Config{})
	ranker := art.NewRanker()

	n := art.Graph.NumVertices()
	pairs := [][2]int64{{0, int64(n - 1)}, {3, int64(n / 2)}, {int64(n - 1), 5}}
	for _, pair := range pairs {
		src, dst := pair[0], pair[1]
		wantResp, err := ranker.Rank(context.Background(), pathrank.RankRequest{Src: roadnet.VertexID(src), Dst: roadnet.VertexID(dst)})
		if err != nil {
			t.Fatalf("in-process query %d->%d: %v", src, dst, err)
		}
		want := wantResp.Paths
		resp, rr := postRank(t, ts.URL, api.RankQuery{Src: src, Dst: dst})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %d->%d: status %d", src, dst, resp.StatusCode)
		}
		if len(rr.Paths) != len(want) {
			t.Fatalf("query %d->%d: %d paths, want %d", src, dst, len(rr.Paths), len(want))
		}
		for i, p := range rr.Paths {
			if p.Score != want[i].Score {
				t.Fatalf("query %d->%d rank %d: score %v != in-process %v",
					src, dst, i+1, p.Score, want[i].Score)
			}
			if len(p.Vertices) != len(want[i].Path.Vertices) {
				t.Fatalf("query %d->%d rank %d: vertex count mismatch", src, dst, i+1)
			}
			for j, v := range p.Vertices {
				if roadnet.VertexID(v) != want[i].Path.Vertices[j] {
					t.Fatalf("query %d->%d rank %d: vertex %d mismatch", src, dst, i+1, j)
				}
			}
			if p.Rank != i+1 {
				t.Fatalf("rank field %d, want %d", p.Rank, i+1)
			}
		}
	}
}

func TestServeCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := api.RankQuery{Src: 1, Dst: int64(s.snap.Load().art.Graph.NumVertices() - 2)}

	_, first := postRank(t, ts.URL, req)
	if first.Cached {
		t.Fatal("first request should not be cached")
	}
	_, second := postRank(t, ts.URL, req)
	if !second.Cached {
		t.Fatal("second identical request should be served from cache")
	}
	if len(first.Paths) != len(second.Paths) {
		t.Fatal("cached response differs")
	}
	for i := range first.Paths {
		if first.Paths[i].Score != second.Paths[i].Score {
			t.Fatal("cached score differs")
		}
	}
	if s.obs.hits.Value() == 0 {
		t.Fatal("cache hit metric not incremented")
	}
}

func TestServeRankValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	n := int64(s.snap.Load().art.Graph.NumVertices())

	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"unknown field", `{"src":0,"dst":1,"nope":3}`, http.StatusBadRequest},
		{"src out of range", fmt.Sprintf(`{"src":%d,"dst":1}`, n), http.StatusBadRequest},
		{"negative dst", `{"src":0,"dst":-4}`, http.StatusBadRequest},
		{"k too large", `{"src":0,"dst":1,"k":1000}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v2/rank")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/rank: status %d, want 405", resp.StatusCode)
	}

	// Oversized body: >1 MiB of JSON is refused with 413, not 400.
	huge := `{"src":0,"dst":1,` + strings.Repeat(" ", 1<<20) + `"k":1}`
	resp, err = http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
}

// TestServeNoPath serves a disconnected two-island graph and expects 404.
func TestServeNoPath(t *testing.T) {
	b := roadnet.NewBuilder(4, 4)
	v0 := b.AddVertex(geo.Point{Lon: 10, Lat: 57})
	v1 := b.AddVertex(geo.Point{Lon: 10.01, Lat: 57})
	v2 := b.AddVertex(geo.Point{Lon: 10.02, Lat: 57})
	v3 := b.AddVertex(geo.Point{Lon: 10.03, Lat: 57})
	b.AddBidirectional(v0, v1, roadnet.Residential)
	b.AddBidirectional(v2, v3, roadnet.Residential)
	g := b.Build()

	model, err := pathrank.New(g.NumVertices(), pathrank.Config{
		EmbeddingDim: 4, Hidden: 4, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(&pathrank.Artifact{Graph: g, Model: model}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postRank(t, ts.URL, api.RankQuery{Src: int64(v0), Dst: int64(v2)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disconnected query: status %d, want 404", resp.StatusCode)
	}
}

func TestServeHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Fatalf("healthz status = %v", health["status"])
	}
	if int(health["vertices"].(float64)) != s.snap.Load().art.Graph.NumVertices() {
		t.Fatal("healthz vertex count mismatch")
	}

	postRank(t, ts.URL, api.RankQuery{Src: 0, Dst: 8})
	m := scrapeProm(t, ts.URL)
	if v := m[`pathrank_http_requests_total{endpoint="/v2/rank"}`]; v != 1 {
		t.Fatalf("/v2/rank requests_total = %v, want 1", v)
	}
	if v := m[`pathrank_http_requests_total{endpoint="/healthz"}`]; v != 1 {
		t.Fatalf("/healthz requests_total = %v, want 1", v)
	}
	if v := m[`pathrank_cache_events_total{event="miss"}`]; v != 1 {
		t.Fatalf("cache misses = %v, want 1", v)
	}
	if m["go_memstats_alloc_bytes"] <= 0 {
		t.Fatal("metrics missing go_memstats_alloc_bytes")
	}

	// The pre-Prometheus surfaces are gone, not aliased.
	for _, path := range []string{"/metrics.json", "/v1/rank"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"src":0,"dst":8}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSingleflightCollapses drives the flight group directly: concurrent
// callers with one key must share a single computation.
func TestSingleflightCollapses(t *testing.T) {
	g := newFlightGroup()
	key := queryKey{src: 1, dst: 2, k: 3}

	var calls int
	gate := make(chan struct{})
	started := make(chan struct{})

	const waiters = 4
	var wg sync.WaitGroup
	sharedCount := make(chan bool, waiters+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, shared := g.do(context.Background(), key, func() ([]byte, error) {
			calls++
			close(started)
			<-gate
			return []byte("0.5"), nil
		})
		sharedCount <- shared
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, err, shared := g.do(context.Background(), key, func() ([]byte, error) {
				t.Error("duplicate in-flight computation")
				return nil, nil
			})
			if err != nil || string(val) != "0.5" {
				t.Errorf("shared result corrupted: %v %v", val, err)
			}
			sharedCount <- shared
		}()
	}
	// Give the waiters a moment to park on the in-flight call, then open
	// the gate.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()
	close(sharedCount)

	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}
	nShared := 0
	for s := range sharedCount {
		if s {
			nShared++
		}
	}
	if nShared != waiters {
		t.Fatalf("%d callers shared, want %d", nShared, waiters)
	}
}

// TestSingleflightSurvivesPanic: a panicking computation must release its
// waiters with an error and unregister the key — not poison it forever.
func TestSingleflightSurvivesPanic(t *testing.T) {
	g := newFlightGroup()
	key := queryKey{src: 1, dst: 2}

	started := make(chan struct{})
	release := make(chan struct{})
	waiterDone := make(chan error, 1)

	go func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic was swallowed")
			}
		}()
		_, _, _ = g.do(context.Background(), key, func() ([]byte, error) {
			close(started)
			<-release
			panic("query invariant broken")
		})
	}()
	<-started
	go func() {
		_, err, _ := g.do(context.Background(), key, func() ([]byte, error) {
			return nil, nil
		})
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter park on the call
	close(release)

	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiter of a panicked call should see an error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter still blocked: key poisoned by panic")
	}

	// The key must be usable again.
	val, err, _ := g.do(context.Background(), key, func() ([]byte, error) {
		return []byte("0.9"), nil
	})
	if err != nil || string(val) != "0.9" {
		t.Fatalf("key not released after panic: %v %v", val, err)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	c := newResultCache(2)
	k1 := queryKey{src: 1, dst: 2}
	k2 := queryKey{src: 3, dst: 4}
	k3 := queryKey{src: 5, dst: 6}

	c.add(k1, []byte("1"))
	c.add(k2, []byte("2"))
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 should be cached")
	}
	// k1 is now most recent; adding k3 must evict k2.
	c.add(k3, []byte("3"))
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 should survive eviction")
	}
	if _, ok := c.get(k3); !ok {
		t.Fatal("k3 should be cached")
	}
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}

	// Disabled cache is inert.
	var nc *resultCache
	nc.add(k1, nil)
	if _, ok := nc.get(k1); ok {
		t.Fatal("nil cache returned a hit")
	}
}

// TestGracefulShutdown serves the server's handler through the shared
// lifecycle helper, as pathrank-serve does: it answers, drains on cancel,
// and closes its listener.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(loadedTestArtifact(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan net.Addr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- api.ListenAndServe(ctx, "127.0.0.1:0", s.Handler(), 5*time.Second, func(a net.Addr) { addrCh <- a })
	}()

	addr := <-addrCh
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatalf("healthz against the served handler: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down within 5s")
	}

	// The listener must actually be closed.
	if _, err := net.DialTimeout("tcp", addr.String(), 100*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}
