package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
)

// TestLiveLoopEndToEnd is the acceptance test for the live pipeline. It
// drives the production topology, a trainer and a server that share only
// the artifact file, through their HTTP surfaces:
//
//  1. start a ranking server on artifact A, watching the artifact path,
//  2. ingest synthetic GPS trajectories through the trainer's POST /v1/ingest,
//  3. trigger an incremental retrain (fine-tune on the matched window),
//  4. the trainer persists artifact B; the server's watcher swaps it in,
//  5. verify POST /v2/rank now serves B's rankings bit-identically,
//
// while a background load generator hammers /v2/rank across the swap and
// proves zero requests were dropped or errored.
func TestLiveLoopEndToEnd(t *testing.T) {
	artA, trips := testWorld(t)
	fpA, err := artA.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	artifactPath := filepath.Join(t.TempDir(), "model.prart")
	if err := pathrank.SaveArtifactFile(artifactPath, artA); err != nil {
		t.Fatal(err)
	}

	// The trainer publishes to the file the server watches; nothing else
	// connects them.
	svc, err := New(artA, Config{
		QueueSize:       64,
		Workers:         2,
		MinObservations: 1,
		Train:           pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 17},
		ArtifactPath:    artifactPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainer := httptest.NewServer(svc.Handler())
	srv, err := serve.New(artA, serve.Config{ArtifactPath: artifactPath, WatchInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); trainer.Close(); srv.Close() })

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	svcDone := make(chan struct{})
	go func() { defer close(svcDone); _ = svc.Run(ctx) }()
	go srv.WatchArtifact(ctx)

	if got := srv.Fingerprint(); got != fpA {
		t.Fatalf("server starts on %.12s, want artifact A %.12s", got, fpA)
	}

	// Step 2: ingest trajectories over HTTP.
	streams := sampleTrajectories(artA, trips[:4], 400)
	for _, recs := range streams {
		var req api.IngestRequest
		for _, r := range recs {
			req.Records = append(req.Records, api.GPSSample{Lon: r.Point.Lon, Lat: r.Point.Lat, T: r.TimeOffset})
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(trainer.URL+"/v1/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		st := svc.Stats()
		return st.Matched+st.MatchFailed == int64(len(streams)) && st.Matched > 0
	}, "ingested trajectories map-matched")

	// Background load across the swap: every response must be a complete
	// 200 — a hot swap must never drop or error an in-flight request.
	n := artA.Graph.NumVertices()
	pairs := [][2]int64{{0, int64(n - 1)}, {3, int64(n / 2)}, {int64(n - 2), 1}}
	var loadWG sync.WaitGroup
	var loadErrs atomic.Int64
	var loadReqs atomic.Int64
	stopLoad := make(chan struct{})
	for w := 0; w < 4; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				p := pairs[(w+i)%len(pairs)]
				body, _ := json.Marshal(api.RankQuery{Src: p[0], Dst: p[1]})
				resp, err := http.Post(ts.URL+"/v2/rank", "application/json", bytes.NewReader(body))
				if err != nil {
					loadErrs.Add(1)
					return
				}
				var rr api.RankResult
				decErr := json.NewDecoder(resp.Body).Decode(&rr)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil || len(rr.Paths) == 0 {
					loadErrs.Add(1)
					return
				}
				loadReqs.Add(1)
			}
		}(w)
	}
	// Let the load generator establish in-flight traffic before swapping.
	waitFor(t, 10*time.Second, func() bool { return loadReqs.Load() >= 8 }, "load generator warm")

	// Steps 3+4: incremental retrain → persist → the watcher's hot swap.
	artB, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := artB.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if fpB == fpA {
		t.Fatal("retrain produced an identical model; the swap would be vacuous")
	}
	waitFor(t, 10*time.Second, func() bool { return srv.Fingerprint() == fpB }, "the watcher to swap in generation B")

	// Keep load flowing a moment across the post-swap window, then stop.
	time.Sleep(50 * time.Millisecond)
	close(stopLoad)
	loadWG.Wait()
	if e := loadErrs.Load(); e != 0 {
		t.Fatalf("%d rank requests dropped or errored during the live swap (of %d)", e, loadReqs.Load())
	}
	if loadReqs.Load() == 0 {
		t.Fatal("load generator made no successful requests")
	}

	// Step 5: the server now answers with B's rankings, bit-identically.
	rankerB := artB.NewRanker()
	for _, p := range pairs {
		wantResp, err := rankerB.Rank(context.Background(), pathrank.RankRequest{Src: roadnet.VertexID(p[0]), Dst: roadnet.VertexID(p[1])})
		if err != nil {
			t.Fatalf("in-process B query %d->%d: %v", p[0], p[1], err)
		}
		want := wantResp.Paths
		body, _ := json.Marshal(api.RankQuery{Src: p[0], Dst: p[1]})
		resp, err := http.Post(ts.URL+"/v2/rank", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var rr api.RankResult
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(rr.Paths) != len(want) {
			t.Fatalf("query %d->%d: %d paths, want %d", p[0], p[1], len(rr.Paths), len(want))
		}
		for i := range want {
			if rr.Paths[i].Score != want[i].Score {
				t.Fatalf("query %d->%d rank %d: served %v, artifact B computes %v",
					p[0], p[1], i+1, rr.Paths[i].Score, want[i].Score)
			}
		}
	}

	// The retrain also persisted B atomically; a cold server starting from
	// the artifact path picks up the new generation with full lineage.
	reloaded, err := pathrank.LoadArtifactFile(artifactPath)
	if err != nil {
		t.Fatal(err)
	}
	fpR, err := reloaded.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if fpR != fpB {
		t.Fatal("persisted artifact is not generation B")
	}
	if reloaded.Lineage.Generation != 1 || reloaded.Lineage.Parent != fpA {
		t.Fatalf("persisted lineage %+v, want gen 1 with parent %.12s", reloaded.Lineage, fpA)
	}

	// /healthz reflects the swap.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["fingerprint"] != fpB {
		t.Fatalf("healthz fingerprint = %v, want %s", health["fingerprint"], fpB)
	}
	if int(health["generation"].(float64)) != 1 {
		t.Fatalf("healthz generation = %v, want 1", health["generation"])
	}

	cancel()
	select {
	case <-svcDone:
	case <-time.After(5 * time.Second):
		t.Fatal("stream service did not stop")
	}
}
