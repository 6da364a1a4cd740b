package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/node2vec"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
	"pathrank/internal/stream"
	"pathrank/internal/traj"
)

// chaosSeed is the deterministic seed of every scenario: the fault
// schedules, the load generator's query mix, and the GPS noise all
// derive from it, so a failing run reproduces with the same CHAOS_SEED.
// CI runs a small seed matrix.
func chaosSeed() int64 {
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		if s, err := strconv.ParseInt(v, 10, 64); err == nil {
			return s
		}
	}
	return 1
}

var (
	worldOnce  sync.Once
	worldErr   error
	worldArt   *pathrank.Artifact
	worldTrips []traj.Trip
)

// testWorld trains one small artifact and trip set for every scenario
// (training dominates the package's test time).
func testWorld(t testing.TB) (*pathrank.Artifact, []traj.Trip) {
	t.Helper()
	worldOnce.Do(func() {
		g, err := roadnet.Generate(roadnet.GenConfig{
			Rows: 8, Cols: 8, SpacingM: 250, JitterFrac: 0.15,
			RemoveFrac: 0.05, ArterialEvery: 4, Motorway: false,
			Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 31,
		})
		if err != nil {
			worldErr = err
			return
		}
		drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: 4, Seed: 32})
		trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{TripsPerDriver: 3, MinHops: 5, Seed: 33})
		if err != nil {
			worldErr = err
			return
		}
		mcfg := pathrank.Config{EmbeddingDim: 8, Hidden: 6, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 5}
		model, err := pathrank.New(g.NumVertices(), mcfg)
		if err != nil {
			worldErr = err
			return
		}
		emb := node2vec.Embed(g, node2vec.DefaultWalkConfig(), node2vec.DefaultTrainConfig(mcfg.EmbeddingDim))
		if err := model.InitEmbeddings(emb); err != nil {
			worldErr = err
			return
		}
		queries, err := dataset.Generate(g, trips, dataset.Config{Strategy: dataset.TkDI, K: 3, IncludeTruth: true})
		if err != nil {
			worldErr = err
			return
		}
		if _, err := model.Train(queries, pathrank.TrainConfig{Epochs: 1, LR: 0.005, ClipNorm: 5, Seed: 1}); err != nil {
			worldErr = err
			return
		}
		worldArt = &pathrank.Artifact{
			Graph: g, Model: model,
			Candidates: dataset.Config{Strategy: dataset.TkDI, K: 3},
			Lineage:    pathrank.Lineage{TrainedOn: len(queries), TotalObserved: len(queries), Note: "offline"},
		}
		worldTrips = trips
	})
	if worldErr != nil {
		t.Fatalf("build chaos world: %v", worldErr)
	}
	return worldArt, worldTrips
}

// harness runs the production topology in-process: a trainer
// (stream.Service, WAL on, its Handler behind an httptest listener) and a
// server (serve.Server, canary gate on, watching the artifact path on a
// short interval, behind another listener). They share nothing but the
// artifact file, exactly as pathrank-train's live mode and pathrank-serve
// -watch do: a generation reaches the server only as a file.
type harness struct {
	srv     *serve.Server
	svc     *stream.Service
	ts      *httptest.Server // the server
	trainer *httptest.Server
	artPath string
	walDir  string

	cancel   context.CancelFunc
	runDone  chan struct{}
	stopOnce sync.Once
}

// shutdown tears the harness down in order (listeners, watcher and
// pipeline, server) exactly once; scenarios that replay the WAL call it
// mid-test to release the log, every other scenario leaves it to Cleanup.
func (h *harness) shutdown(t *testing.T) {
	h.stopOnce.Do(func() {
		h.ts.Close()
		h.trainer.Close()
		h.cancel()
		<-h.runDone
		if err := h.svc.Close(); err != nil {
			t.Errorf("close pipeline: %v", err)
		}
		h.srv.Close()
	})
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	art, _ := testWorld(t)
	dir := t.TempDir()
	h := &harness{
		artPath: filepath.Join(dir, "model.prart"),
		walDir:  filepath.Join(dir, "wal"),
	}
	if err := pathrank.SaveArtifactFile(h.artPath, art); err != nil {
		t.Fatal(err)
	}
	loaded, err := pathrank.LoadArtifactFile(h.artPath)
	if err != nil {
		t.Fatal(err)
	}
	h.svc, err = stream.New(loaded, stream.Config{
		QueueSize: 64, Workers: 2, Window: 128,
		MinObservations: 1 << 20, // scenarios trigger retrains explicitly
		Train:           pathrank.TrainConfig{Epochs: 1, LR: 0.001, ClipNorm: 5, Seed: 1},
		ArtifactPath:    h.artPath,
		WALDir:          h.walDir,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.srv, err = serve.New(loaded, serve.Config{
		ArtifactPath:  h.artPath,
		WatchInterval: 10 * time.Millisecond,
		// The canary gate guards every swap. Divergence is left at the
		// maximum: a one-epoch fine-tune can legitimately flip a near-tie
		// in a K=3 candidate set (serve's unit tests pin the bound); the
		// finite-score and non-empty-path invariants are what keep the
		// poisoned artifact out.
		CanaryQueries:       6,
		CanaryMaxDivergence: 1,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ts = httptest.NewServer(h.srv.Handler())
	h.trainer = httptest.NewServer(h.svc.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.runDone = make(chan struct{})
	go func() {
		defer close(h.runDone)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); h.srv.WatchArtifact(ctx) }()
		_ = h.svc.Run(ctx)
		wg.Wait()
	}()
	t.Cleanup(func() { h.shutdown(t) })
	return h
}

// ingest posts one GPS trajectory to the trainer, as producers would.
func (h *harness) ingest(t *testing.T, recs []traj.GPSRecord) {
	t.Helper()
	req := api.IngestRequest{Records: make([]api.GPSSample, len(recs))}
	for i, r := range recs {
		req.Records[i] = api.GPSSample{Lon: r.Point.Lon, Lat: r.Point.Lat, T: r.TimeOffset}
	}
	payload, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.trainer.URL+"/v1/ingest", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
}

// healthz is the chaos-relevant slice of the trainer's health endpoint.
type healthz struct {
	Status   string              `json:"status"`
	Pipeline *api.PipelineHealth `json:"pipeline"`
}

func (h *harness) healthz(t *testing.T) healthz {
	t.Helper()
	var out healthz
	getJSON(t, h.trainer.URL+"/healthz", &out)
	return out
}

// swaps reads the server's installed-swap count from its /healthz.
func (h *harness) swaps(t *testing.T) int64 {
	t.Helper()
	var out struct {
		Swaps int64 `json:"swaps"`
	}
	getJSON(t, h.ts.URL+"/healthz", &out)
	return out.Swaps
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// loadStats is what the background load generator observed: every
// response that was neither a ranking nor a typed unroutable verdict
// counts as a failure.
type loadStats struct {
	requests atomic.Int64
	failures atomic.Int64
	firstErr atomic.Value
}

// startLoad hammers /v2/rank from two goroutines with a seeded query
// mix until stop is closed; the returned wait joins them.
func (h *harness) startLoad(t *testing.T, stop chan struct{}) (*loadStats, func()) {
	t.Helper()
	art, _ := testWorld(t)
	n := art.Graph.NumVertices()
	stats := &loadStats{}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(chaosSeed() + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := rng.Intn(n)
				dst := rng.Intn(n)
				if src == dst {
					continue
				}
				payload := fmt.Sprintf(`{"src": %d, "dst": %d}`, src, dst)
				resp, err := http.Post(h.ts.URL+"/v2/rank", "application/json", bytes.NewReader([]byte(payload)))
				if err != nil {
					stats.failures.Add(1)
					stats.firstErr.CompareAndSwap(nil, fmt.Errorf("rank %d->%d: %w", src, dst, err))
					continue
				}
				resp.Body.Close()
				stats.requests.Add(1)
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					stats.failures.Add(1)
					stats.firstErr.CompareAndSwap(nil,
						fmt.Errorf("rank %d->%d: status %d", src, dst, resp.StatusCode))
				}
			}
		}(w)
	}
	return stats, wg.Wait
}

// assertCleanLoad stops the generator and fails the test on any dropped
// or errored request.
func assertCleanLoad(t *testing.T, stats *loadStats, stop chan struct{}, wait func()) {
	t.Helper()
	close(stop)
	wait()
	if stats.requests.Load() == 0 {
		t.Fatal("load generator sent no requests")
	}
	if n := stats.failures.Load(); n != 0 {
		err, _ := stats.firstErr.Load().(error)
		t.Fatalf("%d of %d requests failed during the fault (first: %v)", n, stats.requests.Load(), err)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
