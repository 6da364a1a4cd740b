package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/geo"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// roundTripArtifact pushes an artifact through the persistence layer,
// yielding a distinct object with bit-identical weights (same fingerprint).
func roundTripArtifact(t testing.TB, art *pathrank.Artifact) *pathrank.Artifact {
	t.Helper()
	var buf bytes.Buffer
	if err := pathrank.SaveArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := pathrank.LoadArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// variantArtifact builds an artifact over the same graph and candidate
// config whose model has different weights (fresh initialization from a
// different seed), i.e. a different fingerprint.
func variantArtifact(t testing.TB, art *pathrank.Artifact, seed int64) *pathrank.Artifact {
	t.Helper()
	cfg := art.Model.Config()
	cfg.Seed = seed
	model, err := pathrank.New(art.Graph.NumVertices(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &pathrank.Artifact{
		Graph:      art.Graph,
		Model:      model,
		Candidates: art.Candidates,
		Lineage:    art.Lineage.Child("test-parent", 1, "test"),
	}
}

// TestSwapSameFingerprintKeepsCacheBitIdentical is the first half of the
// hot-swap cache property: swapping in an artifact whose model fingerprint
// (and candidate config) is identical must preserve the LRU cache, and the
// cached rankings served afterwards must be bit-identical to those served
// before the swap.
func TestSwapSameFingerprintKeepsCacheBitIdentical(t *testing.T) {
	art := loadedTestArtifact(t)
	s, ts := newTestServer(t, Config{})
	n := int64(art.Graph.NumVertices())

	req := api.RankQuery{Src: 2, Dst: n - 3}
	_, before := postRank(t, ts.URL, req)
	if before.Cached {
		t.Fatal("first response should be a miss")
	}
	cacheLen := s.snap.Load().cache.len()
	if cacheLen == 0 {
		t.Fatal("expected a cached entry before the swap")
	}

	info, err := s.Swap(roundTripArtifact(t, art))
	if err != nil {
		t.Fatal(err)
	}
	if info.Changed {
		t.Fatal("round-tripped artifact reported a changed fingerprint")
	}
	if !info.CachePreserved {
		t.Fatal("identical fingerprint must preserve the cache")
	}
	if got := s.snap.Load().cache.len(); got != cacheLen {
		t.Fatalf("cache length changed across same-fingerprint swap: %d -> %d", cacheLen, got)
	}

	_, after := postRank(t, ts.URL, req)
	if !after.Cached {
		t.Fatal("post-swap request should hit the preserved cache")
	}
	if len(after.Paths) != len(before.Paths) {
		t.Fatal("path count changed across same-fingerprint swap")
	}
	for i := range before.Paths {
		if after.Paths[i].Score != before.Paths[i].Score {
			t.Fatalf("rank %d score changed across same-fingerprint swap: %v != %v",
				i+1, after.Paths[i].Score, before.Paths[i].Score)
		}
		if len(after.Paths[i].Vertices) != len(before.Paths[i].Vertices) {
			t.Fatalf("rank %d path changed across same-fingerprint swap", i+1)
		}
		for j := range before.Paths[i].Vertices {
			if after.Paths[i].Vertices[j] != before.Paths[i].Vertices[j] {
				t.Fatalf("rank %d vertex %d changed across same-fingerprint swap", i+1, j)
			}
		}
	}
}

// TestSwapDifferentFingerprintInvalidatesCache is the second half of the
// property: a different model fingerprint over the same graph and
// candidate config (a model-only swap, what every retrain publishes) must
// fully invalidate the cache. A repeated query then misses, reports
// "cached":false, and is byte-identical to what a fresh server on the new
// artifact answers.
func TestSwapDifferentFingerprintInvalidatesCache(t *testing.T) {
	art := loadedTestArtifact(t)
	s, ts := newTestServer(t, Config{})
	n := int64(art.Graph.NumVertices())

	queries := []api.RankQuery{{Src: 0, Dst: n - 1}, {Src: 4, Dst: n / 2, Explain: true}}
	for _, req := range queries {
		postRank(t, ts.URL, req)
	}
	if s.snap.Load().cache.len() != len(queries) {
		t.Fatal("expected cached entries before the swap")
	}

	art2 := variantArtifact(t, art, 999)
	info, err := s.Swap(art2)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Changed {
		t.Fatal("variant artifact should report a changed fingerprint")
	}
	if info.CachePreserved {
		t.Fatal("different fingerprint must not preserve the cache")
	}
	if got := s.snap.Load().cache.len(); got != 0 {
		t.Fatalf("cache not fully invalidated: %d entries survive", got)
	}
	if info.Generation != art2.Lineage.Generation {
		t.Fatalf("swap info generation %d, want %d", info.Generation, art2.Lineage.Generation)
	}

	// Responses now come from the new model, byte-identical to a server
	// that never saw the old one.
	_, fresh := newTestServerFor(t, art2, Config{})
	for _, req := range queries {
		misses := s.obs.misses.Value()
		code, got := postRaw(t, ts.URL, req)
		wantCode, want := postRaw(t, fresh.URL, req)
		if code != http.StatusOK || wantCode != http.StatusOK {
			t.Fatalf("post-swap rank status %d, fresh server %d", code, wantCode)
		}
		if d := s.obs.misses.Value() - misses; d != 1 {
			t.Fatalf("post-swap %+v: %v misses, want 1", req, d)
		}
		var rr api.RankResult
		if err := json.Unmarshal(got, &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Cached {
			t.Fatal("post-swap response served from a cache that should be empty")
		}
		if req.Explain {
			// Timings differ between runs, so compare the rest of the body.
			if rr.Stats == nil || rr.Stats.GenNs == 0 || rr.Stats.ScoreNs == 0 || rr.Stats.Candidates == 0 {
				t.Fatalf("post-swap explain stats %+v, want a fresh computation's", rr.Stats)
			}
			var wr api.RankResult
			if err := json.Unmarshal(want, &wr); err != nil {
				t.Fatal(err)
			}
			rr.Stats, wr.Stats = nil, nil
			got, want = mustMarshal(t, rr), mustMarshal(t, wr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("post-swap %+v differs from a fresh server on the new artifact:\n got %s\nwant %s", req, got, want)
		}
	}

	// And they match the new model's in-process ranking.
	wantResp, err := art2.NewRanker().Rank(context.Background(), pathrank.RankRequest{Src: roadnet.VertexID(queries[0].Src), Dst: roadnet.VertexID(queries[0].Dst)})
	if err != nil {
		t.Fatal(err)
	}
	want := wantResp.Paths
	_, rr := postRank(t, ts.URL, queries[0])
	if !rr.Cached || len(rr.Paths) != len(want) {
		t.Fatalf("repeat after the swap: cached=%v, %d paths, want a hit with %d", rr.Cached, len(rr.Paths), len(want))
	}
	for i := range want {
		if rr.Paths[i].Score != want[i].Score {
			t.Fatalf("post-swap rank %d score %v, want new model's %v", i+1, rr.Paths[i].Score, want[i].Score)
		}
	}
}

// postRaw posts one query and returns the status and the raw body.
func postRaw(t testing.TB, url string, req api.RankQuery) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v2/rank", "application/json", bytes.NewReader(mustMarshal(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestConcurrentReloadDuringRank hammers /v2/rank while the artifact is
// hot-swapped back and forth, asserting zero dropped or errored requests
// and that every response is bit-identical to one of the two models'
// rankings (never a mixture). Run under -race this also proves the swap
// path is data-race free.
func TestConcurrentReloadDuringRank(t *testing.T) {
	art := loadedTestArtifact(t)
	s, ts := newTestServer(t, Config{CacheSize: 8})
	n := art.Graph.NumVertices()
	artB := variantArtifact(t, art, 4242)

	type pair struct{ src, dst int64 }
	pairs := make([]pair, 6)
	expected := make([]map[string][]float64, len(pairs)) // fingerprint -> scores
	fpA, fpB := s.Fingerprint(), mustFingerprint(t, artB)
	for i := range pairs {
		src := int64((i * 11) % n)
		dst := int64(n - 1 - (i*7)%n)
		if src == dst {
			dst = (dst + 1) % int64(n)
		}
		pairs[i] = pair{src, dst}
		expected[i] = make(map[string][]float64)
		for _, m := range []*pathrank.Artifact{art, artB} {
			rankedResp, err := m.NewRanker().Rank(context.Background(), pathrank.RankRequest{Src: roadnet.VertexID(src), Dst: roadnet.VertexID(dst)})
			if err != nil {
				t.Fatalf("precompute %d->%d: %v", src, dst, err)
			}
			ranked := rankedResp.Paths
			scores := make([]float64, len(ranked))
			for j, rk := range ranked {
				scores[j] = rk.Score
			}
			fp := fpA
			if m == artB {
				fp = fpB
			}
			expected[i][fp] = scores
		}
	}

	stop := make(chan struct{})
	var swapErr atomic.Value
	var swapperDone sync.WaitGroup
	swapperDone.Add(1)
	go func() {
		defer swapperDone.Done()
		arts := []*pathrank.Artifact{artB, art}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Swap(arts[i%2]); err != nil {
				swapErr.Store(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	const workers = 8
	const perWorker = 40
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < perWorker; r++ {
				i := (w + r) % len(pairs)
				resp, rr := postRank(t, ts.URL, api.RankQuery{Src: pairs[i].src, Dst: pairs[i].dst})
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("rank %d->%d during swap: status %d", pairs[i].src, pairs[i].dst, resp.StatusCode)
					return
				}
				got := make([]float64, len(rr.Paths))
				for j, p := range rr.Paths {
					got[j] = p.Score
				}
				if !matchesOneModel(got, expected[i]) {
					errs <- fmt.Errorf("rank %d->%d: scores %v match neither model", pairs[i].src, pairs[i].dst, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	swapperDone.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err, _ := swapErr.Load().(error); err != nil {
		t.Fatalf("swapper failed: %v", err)
	}
}

func mustFingerprint(t testing.TB, art *pathrank.Artifact) string {
	t.Helper()
	fp, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

func matchesOneModel(got []float64, want map[string][]float64) bool {
	for _, scores := range want {
		if len(scores) != len(got) {
			continue
		}
		same := true
		for i := range scores {
			if scores[i] != got[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// TestSwapDifferentGraphInvalidatesCache: identical model weights over a
// DIFFERENT road network must invalidate the cache — cached paths carry
// edge IDs and geometry of the old graph.
func TestSwapDifferentGraphInvalidatesCache(t *testing.T) {
	buildGraph := func(cat roadnet.Category) *roadnet.Graph {
		b := roadnet.NewBuilder(3, 4)
		v0 := b.AddVertex(geo.Point{Lon: 10.00, Lat: 57.00})
		v1 := b.AddVertex(geo.Point{Lon: 10.01, Lat: 57.00})
		v2 := b.AddVertex(geo.Point{Lon: 10.01, Lat: 57.01})
		b.AddBidirectional(v0, v1, cat)
		b.AddBidirectional(v1, v2, cat)
		return b.Build()
	}
	gA := buildGraph(roadnet.Residential)
	gB := buildGraph(roadnet.Primary) // same shape, different categories/times
	model, err := pathrank.New(gA.NumVertices(), pathrank.Config{
		EmbeddingDim: 4, Hidden: 3, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(&pathrank.Artifact{Graph: gA, Model: model}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	s.snap.Load().cache.add(queryKey{src: 0, dst: 2}, []byte("[]"))

	info, err := s.Swap(&pathrank.Artifact{Graph: gB, Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if info.Changed {
		t.Fatal("model fingerprint should be unchanged")
	}
	if info.CachePreserved {
		t.Fatal("cache must not survive a graph change, even with identical weights")
	}
	if got := s.snap.Load().cache.len(); got != 0 {
		t.Fatalf("stale entries survive the graph swap: %d", got)
	}

	// Same-graph (content-identical, distinct object) swap still preserves.
	info, err = s.Swap(&pathrank.Artifact{Graph: buildGraph(roadnet.Primary), Model: model})
	if err != nil {
		t.Fatal(err)
	}
	if !info.CachePreserved {
		t.Fatal("content-identical graph should preserve the cache")
	}
}

// TestReloadEndpoint exercises /v1/reload against a real artifact file:
// success, corrupt file, and no configured path.
func TestReloadEndpoint(t *testing.T) {
	art := loadedTestArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.prart")
	if err := pathrank.SaveArtifactFile(path, variantArtifact(t, art, 777)); err != nil {
		t.Fatal(err)
	}

	s, err := New(art, Config{ArtifactPath: path})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	before := s.Fingerprint()
	resp, err := http.Post(ts.URL+"/v1/reload", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload status %d", resp.StatusCode)
	}
	if s.Fingerprint() == before {
		t.Fatal("reload did not swap the artifact")
	}

	// Corrupt file → error status, server keeps serving the old snapshot.
	if err := os.WriteFile(path, []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	current := s.Fingerprint()
	resp, err = http.Post(ts.URL+"/v1/reload", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d, want 500", resp.StatusCode)
	}
	if s.Fingerprint() != current {
		t.Fatal("failed reload must not change the serving snapshot")
	}
	if s.obs.reloadErrors.Value() == 0 {
		t.Fatal("reload_errors not incremented")
	}

	// No path configured anywhere → 400.
	s2, err := New(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() { ts2.Close(); s2.Close() })
	resp, err = http.Post(ts2.URL+"/v1/reload", "application/json", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("pathless reload status %d, want 400", resp.StatusCode)
	}
}

// TestWatchArtifactHotSwaps proves the file watcher picks up an atomically
// replaced bundle and swaps it in without a reload call.
func TestWatchArtifactHotSwaps(t *testing.T) {
	art := loadedTestArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.prart")
	if err := pathrank.SaveArtifactFile(path, art); err != nil {
		t.Fatal(err)
	}
	s, err := New(art, Config{ArtifactPath: path, WatchInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchArtifact(ctx)

	before := s.Fingerprint()
	next := variantArtifact(t, art, 31337)
	// A same-second rename can leave mtime unchanged on coarse filesystems;
	// the watcher also compares size, but give mtime a nudge for good
	// measure.
	time.Sleep(20 * time.Millisecond)
	if err := pathrank.SaveArtifactFile(path, next); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for s.Fingerprint() == before {
		select {
		case <-deadline:
			t.Fatal("watcher did not swap within 5s")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if s.obs.swaps.Value() == 0 {
		t.Fatal("swaps_total not incremented by watcher")
	}
}

// TestWatchArtifactSeesReplacedFile pins the watcher's change test to the
// file's identity, not only its mtime and size: two artifacts of equal
// size (their lineage notes have equal length), renamed into place in turn
// with one identical mtime, must each be swapped in. Publishers rename a
// new inode into place, so a generation written within the filesystem's
// mtime granularity at an equal size is otherwise never loaded.
func TestWatchArtifactSeesReplacedFile(t *testing.T) {
	art := loadedTestArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.prart")
	noted := func(note string) *pathrank.Artifact {
		a := *art
		a.Lineage.Note = note
		return &a
	}
	if err := pathrank.SaveArtifactFile(path, art); err != nil {
		t.Fatal(err)
	}
	s, err := New(art, Config{ArtifactPath: path, WatchInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.WatchArtifact(ctx)
	waitSwaps := func(n float64, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.obs.swaps.Value() < n {
			if time.Now().After(deadline) {
				t.Fatalf("watcher did not swap in %s within 5s (%v swaps)", what, s.obs.swaps.Value())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A differs from the starting file in size, so any watcher loads it;
	// that also proves the watcher took its baseline before A landed.
	time.Sleep(20 * time.Millisecond)
	if err := pathrank.SaveArtifactFile(path, noted("gen-a")); err != nil {
		t.Fatal(err)
	}
	waitSwaps(1, "gen-a")
	stA, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// B and a fresh copy of A: same size as A, same mtime as A, new inode.
	for i, note := range []string{"gen-b", "gen-a"} {
		tmp := filepath.Join(dir, note+".tmp")
		if err := pathrank.SaveArtifactFile(tmp, noted(note)); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(tmp, stA.ModTime(), stA.ModTime()); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != stA.Size() || !st.ModTime().Equal(stA.ModTime()) {
			t.Fatalf("%s: size %d mtime %v, want A's %d and %v", note, st.Size(), st.ModTime(), stA.Size(), stA.ModTime())
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
		waitSwaps(float64(i+2), note+" renamed over an equal-size, equal-mtime file")
	}
}
