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
	"pathrank/internal/obsv"
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

// harness wires a serve.Server and a stream.Service together exactly as
// cmd/pathrank-serve does — one shared metrics registry, the retrainer
// publishing through Server.Swap (canary gate enabled), the pipeline
// backing /v1/ingest, /v1/provenance, and the /healthz pipeline block —
// and runs it behind an httptest listener.
type harness struct {
	srv     *serve.Server
	svc     *stream.Service
	ts      *httptest.Server
	artPath string
	walDir  string

	cancel   context.CancelFunc
	runDone  chan struct{}
	stopOnce sync.Once
}

// shutdown tears the harness down in order (listener, pipeline, server)
// exactly once; scenario (b) calls it mid-test to release the WAL before
// replaying the directory, every other scenario leaves it to Cleanup.
func (h *harness) shutdown(t *testing.T) {
	h.stopOnce.Do(func() {
		h.ts.Close()
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
	registry := obsv.NewRegistry()
	h.svc, err = stream.New(loaded, stream.Config{
		QueueSize: 64, Workers: 2, Window: 128,
		MinObservations: 1 << 20, // scenarios trigger retrains explicitly
		Train:           pathrank.TrainConfig{Epochs: 1, LR: 0.001, ClipNorm: 5, Seed: 1},
		ArtifactPath:    h.artPath,
		WALDir:          h.walDir,
		Metrics:         registry,
		Publish: func(a *pathrank.Artifact) error {
			_, err := h.srv.Swap(a)
			return err
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.srv, err = serve.New(loaded, serve.Config{
		Metrics:      registry,
		ArtifactPath: h.artPath,
		// The canary gate guards every publish. Divergence is left at the
		// maximum: a one-epoch fine-tune can legitimately flip a near-tie
		// in a K=3 candidate set (serve's unit tests pin the bound); the
		// finite-score and non-empty-path invariants are what keep the
		// poisoned artifact out.
		CanaryQueries:       6,
		CanaryMaxDivergence: 1,
		Ingest:              h.svc,
		Provenance:          h.svc,
		Pipeline:            h.svc,
		Logf:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.ts = httptest.NewServer(h.srv.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.runDone = make(chan struct{})
	go func() {
		defer close(h.runDone)
		_ = h.svc.Run(ctx)
	}()
	t.Cleanup(func() { h.shutdown(t) })
	return h
}

// ingest posts one GPS trajectory through HTTP, as producers would.
func (h *harness) ingest(t *testing.T, recs []traj.GPSRecord) {
	t.Helper()
	type sample struct {
		Lon float64 `json:"lon"`
		Lat float64 `json:"lat"`
		T   float64 `json:"t"`
	}
	body := struct {
		Records []sample `json:"records"`
	}{Records: make([]sample, len(recs))}
	for i, r := range recs {
		body.Records[i] = sample{Lon: r.Point.Lon, Lat: r.Point.Lat, T: r.TimeOffset}
	}
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+"/v1/ingest", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status %d, want 202", resp.StatusCode)
	}
}

// healthz fetches and decodes the health endpoint's chaos-relevant slice.
type healthz struct {
	Status   string              `json:"status"`
	Pipeline *api.PipelineHealth `json:"pipeline"`
}

func (h *harness) healthz(t *testing.T) healthz {
	t.Helper()
	resp, err := http.Get(h.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out healthz
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
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
