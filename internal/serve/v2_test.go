package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// postV2 posts a raw v2 body and decodes the response into out when the
// status is 200.
func postV2(t testing.TB, url, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v2/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode v2 response: %v", err)
		}
	}
	return resp
}

// decodeV2Error reads a non-200 v2 response's typed error envelope.
func decodeV2Error(t testing.TB, url, body string) (*http.Response, *api.Error) {
	t.Helper()
	resp, err := http.Post(url+"/v2/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("decode v2 error envelope: %v", err)
	}
	if env.Error == nil {
		t.Fatal("error response without error body")
	}
	return resp, env.Error
}

// TestV2SingleMatchesInProcess: one query answered over /v2/rank equals an
// in-process Ranker.Rank, path for path and score for score.
func TestV2SingleMatchesInProcess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	art := loadedTestArtifact(t)
	src, dst := int64(0), int64(art.Graph.NumVertices()-1)

	var v2 api.RankResult
	resp := postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst), &v2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("v2 status %d", resp.StatusCode)
	}
	ranker := art.NewRanker()
	wantResp, err := ranker.Rank(context.Background(), pathrank.RankRequest{Src: roadnet.VertexID(src), Dst: roadnet.VertexID(dst)})
	if err != nil {
		t.Fatal(err)
	}
	want := wantResp.Paths
	if len(want) == 0 || len(want) != len(v2.Paths) {
		t.Fatalf("in-process %d paths vs v2 %d", len(want), len(v2.Paths))
	}
	for i := range want {
		if want[i].Score != v2.Paths[i].Score {
			t.Fatalf("score %d: in-process %v vs v2 %v", i, want[i].Score, v2.Paths[i].Score)
		}
	}
}

// TestV2CacheKeyIsResolvedRegime: the cache is keyed on what a query
// resolves to, not on how it is spelled. Naming every snapshot default
// explicitly hits the bare query's entry; a k override scales the default probe
// budget while an explicit max_probe pins it, so those two are different
// regimes and must not share.
func TestV2CacheKeyIsResolvedRegime(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	def := &s.snap.Load().ranker.Candidates
	def.MaxProbe = 50
	n := s.snap.Load().art.Graph.NumVertices()
	od := fmt.Sprintf(`"src":1,"dst":%d`, n-2)

	type result struct {
		Cached bool            `json:"cached"`
		Paths  json.RawMessage `json:"paths"`
	}
	query := func(body string) result {
		t.Helper()
		var res result
		if resp := postV2(t, ts.URL, "{"+od+body+"}", &res); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		return res
	}
	cached := func(body string) bool { return query(body).Cached }
	bare := query("")
	if bare.Cached {
		t.Fatal("first bare query cannot be cached")
	}
	explicit := fmt.Sprintf(`,"k":%d,"strategy":"dtkdi","threshold":%g,"max_probe":%d,"weight":"length"`,
		def.K, def.Threshold, def.MaxProbe)
	if res := query(explicit); !res.Cached || !bytes.Equal(res.Paths, bare.Paths) {
		t.Fatalf("explicit defaults: cached=%v, paths equal to the bare query's: %v; want the bare query's entry", res.Cached, bytes.Equal(res.Paths, bare.Paths))
	}
	scaled := `,"k":7`
	pinned := fmt.Sprintf(`,"k":7,"max_probe":%d`, def.MaxProbe)
	if cached(scaled) {
		t.Fatal("k=7 shares an entry with the default k")
	}
	if cached(pinned) {
		t.Fatal("k=7 with a pinned max_probe shares the scaled-probe entry")
	}
	if !cached(scaled) || !cached(pinned) {
		t.Fatal("repeated overrides should hit their own entries")
	}
}

// TestV2Overrides: per-request k and strategy change the result; explain
// returns resolved stats.
func TestV2Overrides(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	art := loadedTestArtifact(t)
	src, dst := int64(0), int64(art.Graph.NumVertices()-1)

	var small api.RankResult
	postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d,"k":2,"explain":true}`, src, dst), &small)
	if len(small.Paths) > 2 {
		t.Fatalf("k=2 returned %d paths", len(small.Paths))
	}
	if small.Stats == nil || small.Stats.K != 2 {
		t.Fatalf("explain stats missing or wrong: %+v", small.Stats)
	}
	if small.Stats.GenNs <= 0 || small.Stats.ScoreNs <= 0 {
		t.Fatalf("explain stats missing timings: %+v", small.Stats)
	}

	var tk api.RankResult
	postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d,"strategy":"tkdi","explain":true}`, src, dst), &tk)
	if tk.Stats == nil || tk.Stats.Strategy != "TkDI" {
		t.Fatalf("strategy override stats: %+v", tk.Stats)
	}

	var tm api.RankResult
	postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d,"weight":"time","explain":true}`, src, dst), &tm)
	if tm.Stats == nil || tm.Stats.Weight != "time" {
		t.Fatalf("weight override stats: %+v", tm.Stats)
	}
}

// TestV2BatchPerItemErrors: a mixed batch returns 200 with per-item typed
// errors, and its successful items equal the corresponding single queries.
func TestV2BatchPerItemErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	art := loadedTestArtifact(t)
	n := art.Graph.NumVertices()
	src, dst := int64(0), int64(n-1)

	body := fmt.Sprintf(`{"queries":[
		{"src":%d,"dst":%d},
		{"src":%d,"dst":1},
		{"src":0,"dst":1,"k":%d},
		{"src":2,"dst":%d,"strategy":"nope"}
	]}`, src, dst, n, s.cfg.MaxK+1, dst)

	var batch api.BatchResponse
	resp := postV2(t, ts.URL, body, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-item errors", resp.StatusCode)
	}
	if len(batch.Results) != 4 || batch.Errors != 3 {
		t.Fatalf("results=%d errors=%d, want 4/3", len(batch.Results), batch.Errors)
	}
	ok := batch.Results[0]
	if ok.Error != nil || ok.Response == nil || len(ok.Response.Paths) == 0 {
		t.Fatalf("item 0 should succeed: %+v", ok)
	}
	for i := 1; i <= 3; i++ {
		it := batch.Results[i]
		if it.Error == nil || it.Response != nil {
			t.Fatalf("item %d should fail: %+v", i, it)
		}
		if it.Error.Code != api.CodeInvalid {
			t.Fatalf("item %d code %q, want invalid", i, it.Error.Code)
		}
		if it.Index != i {
			t.Fatalf("item %d reports index %d", i, it.Index)
		}
	}

	// The batch's successful item matches a single v2 query bit for bit.
	var single api.RankResult
	postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst), &single)
	if len(single.Paths) != len(ok.Response.Paths) {
		t.Fatalf("batch item vs single: %d vs %d paths", len(ok.Response.Paths), len(single.Paths))
	}
	for i := range single.Paths {
		if single.Paths[i].Score != ok.Response.Paths[i].Score {
			t.Fatalf("batch item score %d differs from single query", i)
		}
	}
}

// TestV2BatchUnroutable: an unroutable pair inside a batch fails only its
// item, with the unroutable code.
func TestV2BatchUnroutable(t *testing.T) {
	s := islandServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var batch api.BatchResponse
	resp := postV2(t, ts.URL, `{"queries":[{"src":0,"dst":1},{"src":0,"dst":2}]}`, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if batch.Errors != 1 {
		t.Fatalf("errors=%d, want 1", batch.Errors)
	}
	if batch.Results[0].Error != nil {
		t.Fatalf("routable item failed: %+v", batch.Results[0].Error)
	}
	if e := batch.Results[1].Error; e == nil || e.Code != api.CodeUnroutable {
		t.Fatalf("island item: %+v, want unroutable", e)
	}
}

// islandServer serves a two-island graph (0-1 and 2-3 disconnected).
func islandServer(t testing.TB) *Server {
	t.Helper()
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
	t.Cleanup(s.Close)
	return s
}

// TestV2TypedErrorStatuses: single-query failures carry the right status
// and envelope.
func TestV2TypedErrorStatuses(t *testing.T) {
	s := islandServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, e := decodeV2Error(t, ts.URL, `{"src":0,"dst":2}`)
	if resp.StatusCode != http.StatusNotFound || e.Code != api.CodeUnroutable {
		t.Fatalf("unroutable: status=%d code=%q", resp.StatusCode, e.Code)
	}
	resp, e = decodeV2Error(t, ts.URL, `{"src":0,"dst":99}`)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalid {
		t.Fatalf("out of range: status=%d code=%q", resp.StatusCode, e.Code)
	}
	resp, e = decodeV2Error(t, ts.URL, `{"src":0,`)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalid {
		t.Fatalf("bad json: status=%d code=%q", resp.StatusCode, e.Code)
	}
	// Only whitespace may follow the request object: a second value or
	// trailing bytes fail the request rather than being ignored.
	for _, body := range []string{`{"src":0,"dst":1}{"src":0,"dst":2}`, `{"src":0,"dst":1}xyz`} {
		resp, e = decodeV2Error(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalid || !strings.Contains(e.Message, "after the top-level value") {
			t.Fatalf("%s: status=%d code=%q message=%q, want 400 invalid_request trailing data", body, resp.StatusCode, e.Code, e.Message)
		}
	}
	// The query has no engine field: naming one, inline or in a batch
	// item, is an unknown field.
	for _, body := range []string{`{"src":0,"dst":1,"engine":"ch"}`, `{"src":0,"dst":1,"engine":"dijkstra"}`, `{"queries":[{"src":0,"dst":1,"engine":"ch"}]}`} {
		resp, e = decodeV2Error(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalid || !strings.Contains(e.Message, `unknown field "engine"`) {
			t.Fatalf("%s: status=%d code=%q message=%q, want 400 invalid_request unknown field", body, resp.StatusCode, e.Code, e.Message)
		}
	}
	// The probe budget also sizes the enumeration's pending list, so it is
	// capped at 10 times the k cap.
	capped := 10 * s.cfg.MaxK
	resp, e = decodeV2Error(t, ts.URL, fmt.Sprintf(`{"src":0,"dst":1,"max_probe":%d}`, capped+1))
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalid {
		t.Fatalf("max_probe past the cap: status=%d code=%q", resp.StatusCode, e.Code)
	}
	if resp := postV2(t, ts.URL, fmt.Sprintf(`{"src":0,"dst":1,"max_probe":%d}`, capped), nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("max_probe at the cap: status %d", resp.StatusCode)
	}
}

// slowArtifact builds a large network on which a huge-k TkDI query takes
// long enough to observe deadlines and backpressure mid-computation.
var (
	slowArtOnce sync.Once
	slowArt     *pathrank.Artifact
	slowArtErr  error
)

func slowArtifact(t testing.TB) *pathrank.Artifact {
	t.Helper()
	slowArtOnce.Do(func() {
		g, err := roadnet.Generate(roadnet.GenConfig{
			Rows: 40, Cols: 40, SpacingM: 250, JitterFrac: 0.25,
			RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
			Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: 3,
		})
		if err != nil {
			slowArtErr = err
			return
		}
		model, err := pathrank.New(g.NumVertices(), pathrank.Config{
			EmbeddingDim: 4, Hidden: 4, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
		})
		if err != nil {
			slowArtErr = err
			return
		}
		slowArt = &pathrank.Artifact{
			Graph: g, Model: model,
			Candidates: dataset.Config{Strategy: dataset.TkDI, K: 4},
		}
	})
	if slowArtErr != nil {
		t.Fatal(slowArtErr)
	}
	return slowArt
}

// slowServer serves the slow artifact, which carries no hierarchy and so
// ranks on the plain pooled search, with the given extra config knobs.
func slowServer(t testing.TB, cfg Config) (*Server, *pathrank.Artifact) {
	t.Helper()
	art := slowArtifact(t)
	if cfg.MaxK == 0 {
		cfg.MaxK = 4096
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = -1
	}
	s, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, art
}

// TestV2DeadlineMidYen is the acceptance test for server-side deadlines: a
// slow enumeration under a 20ms timeout_ms returns 504 with the deadline
// code, and the workspaces it abandoned mid-search go back to the pool
// uncorrupted — the same query re-run without a deadline matches an
// in-process ranker exactly.
func TestV2DeadlineMidYen(t *testing.T) {
	s, art := slowServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	src, dst := int64(0), int64(art.Graph.NumVertices()-1)

	// k=3000 runs >1s uncanceled (see the spath cancellation tests); the
	// 20ms deadline must cut it off mid-Yen.
	start := time.Now()
	resp, e := decodeV2Error(t, ts.URL,
		fmt.Sprintf(`{"src":%d,"dst":%d,"k":3000,"timeout_ms":20}`, src, dst))
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout || e.Code != api.CodeDeadline {
		t.Fatalf("deadline query: status=%d code=%q (elapsed %v), want 504/deadline", resp.StatusCode, e.Code, elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to take effect", elapsed)
	}

	// Pool integrity: a modest query right after the aborted enumeration
	// is bit-identical to a fresh in-process ranker.
	var got api.RankResult
	if r2 := postV2(t, ts.URL, fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst), &got); r2.StatusCode != http.StatusOK {
		t.Fatalf("post-deadline query: status %d", r2.StatusCode)
	}
	ranker := art.NewRanker()
	wantResp, err := ranker.Rank(context.Background(), pathrank.RankRequest{Src: roadnet.VertexID(src), Dst: roadnet.VertexID(dst)})
	if err != nil {
		t.Fatal(err)
	}
	want := wantResp.Paths
	if len(want) != len(got.Paths) {
		t.Fatalf("post-deadline: %d vs %d paths", len(got.Paths), len(want))
	}
	for i := range want {
		if want[i].Score != got.Paths[i].Score {
			t.Fatalf("post-deadline: score %d differs", i)
		}
	}
}

// TestV2EmptyBatch: {"queries":[]} is an empty batch (answered as such),
// not a src=0,dst=0 single query.
func TestV2EmptyBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var batch api.BatchResponse
	resp := postV2(t, ts.URL, `{"queries":[]}`, &batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty batch: status %d", resp.StatusCode)
	}
	if batch.Results == nil || len(batch.Results) != 0 || batch.Errors != 0 {
		t.Fatalf("empty batch: %+v, want zero results", batch)
	}
}

// TestV2CachedExplainOmitsStats: explain on a cache hit omits stats (the
// responding request generated nothing), per the documented contract.
func TestV2CachedExplainOmitsStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	art := loadedTestArtifact(t)
	body := fmt.Sprintf(`{"src":4,"dst":%d,"explain":true}`, art.Graph.NumVertices()-1)
	var first, second api.RankResult
	postV2(t, ts.URL, body, &first)
	if first.Cached || first.Stats == nil {
		t.Fatalf("first query: cached=%v stats=%v", first.Cached, first.Stats)
	}
	postV2(t, ts.URL, body, &second)
	if !second.Cached || second.Stats != nil {
		t.Fatalf("cached query: cached=%v stats=%+v, want cached with no stats", second.Cached, second.Stats)
	}
}

// TestV2BacklogSheds: with MaxInFlight set, a request arriving while the
// cap is occupied is shed with 503 + the backlog code + Retry-After
// instead of queuing behind the slow computation.
func TestV2BacklogSheds(t *testing.T) {
	s, art := slowServer(t, Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	n := art.Graph.NumVertices()

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		resp, err := http.Post(ts.URL+"/v2/rank", "application/json",
			strings.NewReader(fmt.Sprintf(`{"src":0,"dst":%d,"k":3000}`, n-1)))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the slow request is counted in flight.
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	resp, e := decodeV2Error(t, ts.URL, `{"src":0,"dst":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable || e.Code != api.CodeBacklog {
		t.Fatalf("overloaded v2: status=%d code=%q, want 503/backlog", resp.StatusCode, e.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("backlog response missing Retry-After")
	}
	<-slowDone
}

// TestFlightWaiterHonorsDeadline: a request that joins another's in-flight
// computation still times out on its own deadline instead of waiting the
// leader out.
func TestFlightWaiterHonorsDeadline(t *testing.T) {
	g := newFlightGroup()
	key := queryKey{src: 1, dst: 2}
	leaderStarted := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = g.do(context.Background(), key, func() ([]byte, error) {
			close(leaderStarted)
			<-release
			return nil, nil
		})
	}()
	<-leaderStarted
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err, shared := g.do(ctx, key, func() ([]byte, error) {
		t.Error("waiter must not recompute")
		return nil, nil
	})
	if !shared || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter: shared=%v err=%v, want shared deadline error", shared, err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("waiter blocked %v past its deadline", time.Since(start))
	}
	close(release)
}

// TestV2BatchDedupesDuplicates: identical queries inside one batch
// compute once; followers get the same ranking marked shared.
func TestV2BatchDedupesDuplicates(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	art := loadedTestArtifact(t)
	dst := art.Graph.NumVertices() - 1

	misses := s.obs.misses.Value()
	var batch api.BatchResponse
	body := fmt.Sprintf(`{"queries":[{"src":5,"dst":%d},{"src":5,"dst":%d},{"src":5,"dst":%d}]}`, dst, dst, dst)
	resp := postV2(t, ts.URL, body, &batch)
	if resp.StatusCode != http.StatusOK || batch.Errors != 0 {
		t.Fatalf("status=%d errors=%d", resp.StatusCode, batch.Errors)
	}
	if got := s.obs.misses.Value() - misses; got != 1 {
		t.Fatalf("duplicate batch items caused %v computations, want 1", got)
	}
	lead := batch.Results[0].Response
	for i := 1; i < 3; i++ {
		f := batch.Results[i].Response
		if f == nil || !f.Shared {
			t.Fatalf("item %d: %+v, want shared follower", i, batch.Results[i])
		}
		if len(f.Paths) != len(lead.Paths) || f.Paths[0].Score != lead.Paths[0].Score {
			t.Fatalf("item %d ranking differs from leader", i)
		}
	}
}

// TestV2BatchTooLarge: batches over MaxBatch are rejected whole.
func TestV2BatchTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 2})
	resp, e := decodeV2Error(t, ts.URL, `{"queries":[{"src":0,"dst":1},{"src":0,"dst":2},{"src":0,"dst":3}]}`)
	if resp.StatusCode != http.StatusBadRequest || e.Code != api.CodeInvalid {
		t.Fatalf("oversized batch: status=%d code=%q", resp.StatusCode, e.Code)
	}
}

// TestV1ReloadClientErrorIs400: a reload naming a nonexistent artifact is
// the client's fault, not a 500.
func TestV1ReloadClientErrorIs400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"artifact":"/nonexistent/bundle.prart"}`
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("reload with bad client path: status %d, want 400", resp.StatusCode)
	}
}

// lagoonServer serves a 6x6 lattice of mixed road classes plus a
// two-vertex island (vertices 36 and 37) no lattice vertex can reach, with
// the result cache off.
func lagoonServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	const side = 6
	b := roadnet.NewBuilder(side*side+2, 4*side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			b.AddVertex(geo.Point{Lon: 10 + 0.003*float64(c), Lat: 57 + 0.002*float64(r)})
		}
	}
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			v := roadnet.VertexID(r*side + c)
			if c+1 < side {
				b.AddBidirectional(v, v+1, roadnet.Category((r+c)%roadnet.NumCategories))
			}
			if r+1 < side {
				b.AddBidirectional(v, v+side, roadnet.Category((r*c)%roadnet.NumCategories))
			}
		}
	}
	u := b.AddVertex(geo.Point{Lon: 10.05, Lat: 57.05})
	w := b.AddVertex(geo.Point{Lon: 10.051, Lat: 57.05})
	b.AddBidirectional(u, w, roadnet.Residential)
	g := b.Build()
	model, err := pathrank.New(g.NumVertices(), pathrank.Config{
		EmbeddingDim: 6, Hidden: 5, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return newTestServerFor(t, &pathrank.Artifact{Graph: g, Model: model}, Config{CacheSize: -1})
}

// rawResult is a ranking response with its paths array kept as the bytes
// the server wrote; rawItem is a batch item carrying one.
type rawResult struct {
	Shared bool            `json:"shared"`
	Paths  json.RawMessage `json:"paths"`
}

type rawItem struct {
	Index    int        `json:"index"`
	Response *rawResult `json:"response"`
	Error    *api.Error `json:"error"`
}

// TestV2BatchScoringMatchesSingles: every item of a mixed batch — k=32
// TkDI, the default D-TkDI, an in-batch duplicate, an invalid and an
// unroutable item — answers exactly as the same query sent alone: the same
// paths bytes, or the same error code. Each item ranks on its own worker,
// which must be invisible.
func TestV2BatchScoringMatchesSingles(t *testing.T) {
	_, ts := lagoonServer(t)
	qs := []string{
		`{"src":0,"dst":35,"k":32,"strategy":"tkdi"}`,
		`{"src":3,"dst":32}`,
		`{"src":0,"dst":35,"k":32,"strategy":"tkdi"}`,
		`{"src":0,"dst":99}`,
		`{"src":7,"dst":36}`,
		`{"src":30,"dst":5,"k":32,"strategy":"tkdi"}`,
		`{"src":12,"dst":23,"threshold":0.5}`,
	}
	post := func(body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, raw
	}
	status, raw := post(`{"queries":[` + strings.Join(qs, ",") + `]}`)
	var batch struct {
		Results []rawItem `json:"results"`
		Errors  int       `json:"errors"`
	}
	if err := json.Unmarshal(raw, &batch); status != http.StatusOK || err != nil {
		t.Fatalf("batch: status %d, %v", status, err)
	}
	if len(batch.Results) != len(qs) || batch.Errors != 2 {
		t.Fatalf("batch: %d results, %d errors, want %d/2", len(batch.Results), batch.Errors, len(qs))
	}
	for i, q := range qs {
		item := batch.Results[i]
		if item.Index != i {
			t.Fatalf("item %d reports index %d", i, item.Index)
		}
		status, raw := post(q)
		if status != http.StatusOK {
			var env api.ErrorEnvelope
			if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
				t.Fatalf("%s: HTTP %d %q", q, status, raw)
			}
			if item.Error == nil || item.Error.Code != env.Error.Code {
				t.Fatalf("item %d: %+v, single failed with %q", i, item, env.Error.Code)
			}
			continue
		}
		var single rawResult
		if err := json.Unmarshal(raw, &single); err != nil {
			t.Fatal(err)
		}
		if len(single.Paths) < 3 {
			t.Fatalf("%s: empty ranking %s", q, single.Paths)
		}
		if item.Response == nil {
			t.Fatalf("item %d (%s) failed in the batch: %+v", i, q, item.Error)
		}
		if !bytes.Equal(item.Response.Paths, single.Paths) {
			t.Fatalf("item %d (%s): batch paths differ from the single query's:\n batch  %s\n single %s",
				i, q, item.Response.Paths, single.Paths)
		}
	}
	if !batch.Results[2].Response.Shared {
		t.Fatal("the in-batch duplicate is not marked shared")
	}
	if batch.Results[3].Error.Code != api.CodeInvalid || batch.Results[4].Error.Code != api.CodeUnroutable {
		t.Fatalf("error items: %+v %+v", batch.Results[3].Error, batch.Results[4].Error)
	}
}

// rankedPaths is the reference rendering: a ranking as the []api.RankedPath
// whose json.Marshal pathrank.RenderPaths must reproduce byte for byte,
// vertex IDs mapped through globalV when it is set.
func rankedPaths(g *roadnet.Graph, ranked []pathrank.Ranked, globalV []roadnet.VertexID) []api.RankedPath {
	paths := make([]api.RankedPath, len(ranked))
	for i, rk := range ranked {
		verts := make([]int64, len(rk.Path.Vertices))
		for j, v := range rk.Path.Vertices {
			if globalV != nil {
				v = globalV[v]
			}
			verts[j] = int64(v)
		}
		paths[i] = api.RankedPath{
			Rank:     i + 1,
			Score:    rk.Score,
			LengthM:  rk.Path.Length(g),
			TimeS:    rk.Path.Time(g),
			Hops:     rk.Path.Len(),
			Vertices: verts,
		}
	}
	return paths
}

// TestRenderMatchesMarshal: pathrank.RenderPaths, the renderer of every
// server's and router's ranking, appends, byte for byte, what json.Marshal
// writes for the ranking's []api.RankedPath — over real rankings whose
// scores are redrawn from the values a float rule most easily gets wrong
// (signed zeros, subnormals, both sides of the 'e' thresholds) and from
// random bits, an empty ranking and an empty path, with the graph's own
// vertex IDs and with them mapped to others as a router's corridor graph
// maps its own — and refuses a NaN or infinite score with json.Marshal's
// error.
func TestRenderMatchesMarshal(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheSize: -1})
	snap := s.snap.Load()
	g := snap.art.Graph
	globalV := make([]roadnet.VertexID, g.NumVertices())
	for v := range globalV {
		globalV[v] = roadnet.VertexID(3*v + 1000)
	}
	check := func(ranked []pathrank.Ranked) {
		t.Helper()
		for _, gv := range [][]roadnet.VertexID{nil, globalV} {
			want, wantErr := json.Marshal(rankedPaths(g, ranked, gv))
			got, err := pathrank.RenderPaths(g, ranked, gv)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("render error %v, json.Marshal error %v", err, wantErr)
				}
				continue
			}
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("render differs from json.Marshal (err %v):\n got %s\nwant %s", err, got, want)
			}
		}
	}
	check(nil)
	check([]pathrank.Ranked{})
	check([]pathrank.Ranked{{Score: 0.5}})

	specials := []float64{
		0, math.Copysign(0, -1), 5e-324, -2.2250738585072014e-308, 1e-6, 9.999999999999999e-7,
		1e-7, -1e-7, 1e20, 1e21, -1e21, math.MaxFloat64, 1, 0.1,
	}
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	var last []pathrank.Ranked
	for i := 0; i < 200; i++ {
		src, dst := rng.Intn(n), rng.Intn(n)
		if src == dst {
			continue
		}
		res, err := snap.ranker.Rank(context.Background(), pathrank.RankRequest{
			Src: roadnet.VertexID(src), Dst: roadnet.VertexID(dst), K: 1 + rng.Intn(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		for j := range res.Paths {
			switch rng.Intn(3) {
			case 0:
				res.Paths[j].Score = specials[rng.Intn(len(specials))]
			case 1:
				if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
					res.Paths[j].Score = f
				}
			}
		}
		check(res.Paths)
		last = res.Paths
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		last[len(last)-1].Score = bad
		check(last)
	}
}

// TestV2BodiesMatchEncoder: every /v2/rank success body — miss, hit,
// shared, explain, batch with per-item errors and in-batch duplicates,
// cache on and off, before and after a model swap — is byte-for-byte what
// json.Encoder writes for the value it decodes to, i.e. what the server
// wrote before rank bodies had their own writer.
func TestV2BodiesMatchEncoder(t *testing.T) {
	art := loadedTestArtifact(t)
	n := art.Graph.NumVertices()
	bodies := []string{
		`{"src":0,"dst":70}`,
		`{"src":0,"dst":70}`,
		`{"src":0,"dst":70,"k":4,"strategy":"dtkdi","explain":true}`,
		`{"src":3,"dst":40,"k":3,"strategy":"tkdi","weight":"time","explain":true}`,
		`{"src":3,"dst":40,"k":3,"strategy":"tkdi","weight":"time","explain":true}`,
		fmt.Sprintf(`{"queries":[{"src":0,"dst":70},{"src":5,"dst":%d},{"src":5,"dst":%d,"explain":true},`+
			`{"src":1,"dst":%d},{"src":2,"dst":60,"explain":true,"threshold":0.5}]}`, n-3, n-3, n+7),
		`{"queries":[]}`,
	}
	check := func(t *testing.T, url string, body string, batch bool) {
		t.Helper()
		resp, err := http.Post(url+"/v2/rank", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d %v", body, resp.StatusCode, err)
		}
		var v any = new(api.RankResult)
		if batch {
			v = new(api.BatchResponse)
		}
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(v); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want.Bytes()) {
			t.Fatalf("%s:\n body %s\n json.Encoder %s", body, raw, want.Bytes())
		}
	}
	for _, cfg := range []Config{{}, {CacheSize: -1}} {
		s, ts := newTestServer(t, cfg)
		for round := 0; round < 2; round++ {
			for _, body := range bodies {
				check(t, ts.URL, body, strings.HasPrefix(body, `{"queries"`))
			}
			// Round two runs after a model-only swap emptied the cache.
			if _, err := s.Swap(variantArtifact(t, art, 4242+int64(round))); err != nil {
				t.Fatal(err)
			}
		}
	}
}
