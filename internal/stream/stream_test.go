package stream

import (
	"context"
	"sync"
	"testing"
	"time"

	"pathrank/internal/dataset"
	"pathrank/internal/geo"
	"pathrank/internal/node2vec"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/traj"
)

var (
	worldOnce sync.Once
	worldErr  error
	worldArt  *pathrank.Artifact
	worldTrip []traj.Trip
)

// testWorld builds one small trained artifact and a set of trips whose GPS
// samples feed the ingest tests. Built once: training dominates the
// package's test time.
func testWorld(t testing.TB) (*pathrank.Artifact, []traj.Trip) {
	t.Helper()
	worldOnce.Do(func() {
		g, err := roadnet.Generate(roadnet.GenConfig{
			Rows: 8, Cols: 8, SpacingM: 250, JitterFrac: 0.15,
			RemoveFrac: 0.05, ArterialEvery: 4, Motorway: false,
			Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 21,
		})
		if err != nil {
			worldErr = err
			return
		}
		drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: 4, Seed: 22})
		trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{TripsPerDriver: 3, MinHops: 5, Seed: 23})
		if err != nil {
			worldErr = err
			return
		}
		mcfg := pathrank.Config{EmbeddingDim: 8, Hidden: 6, Variant: pathrank.PRA2, Body: pathrank.GRUBody, Seed: 3}
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
		dcfg := dataset.Config{Strategy: dataset.TkDI, K: 3, IncludeTruth: true}
		queries, err := dataset.Generate(g, trips, dcfg)
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
		worldTrip = trips
	})
	if worldErr != nil {
		t.Fatalf("build test world: %v", worldErr)
	}
	return worldArt, worldTrip
}

// sampleTrajectories converts trips into noisy GPS streams.
func sampleTrajectories(art *pathrank.Artifact, trips []traj.Trip, seed int64) [][]traj.GPSRecord {
	out := make([][]traj.GPSRecord, 0, len(trips))
	for i, tr := range trips {
		cfg := traj.GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: seed + int64(i)}
		out = append(out, traj.SampleGPS(art.Graph, tr.Path, cfg))
	}
	return out
}

func TestIngestBackpressure(t *testing.T) {
	art, trips := testWorld(t)
	// No workers running: the queue fills and sheds.
	svc, err := New(art, Config{QueueSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleTrajectories(art, trips[:1], 100)[0]
	if err := svc.IngestGPS(nil); err == nil {
		t.Fatal("empty trajectory accepted")
	}
	if err := svc.IngestGPS(recs); err != nil {
		t.Fatalf("first ingest: %v", err)
	}
	if err := svc.IngestGPS(recs); err != nil {
		t.Fatalf("second ingest: %v", err)
	}
	if err := svc.IngestGPS(recs); err != ErrBacklog {
		t.Fatalf("overflow ingest error = %v, want ErrBacklog", err)
	}
	st := svc.Stats()
	if st.QueueDepth != 2 || st.Received != 2 || st.Dropped != 1 {
		t.Fatalf("stats after overflow: %+v", st)
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

func TestMatchWindowAndEviction(t *testing.T) {
	art, trips := testWorld(t)
	svc, err := New(art, Config{QueueSize: 16, Workers: 2, Window: 2, MinObservations: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); _ = svc.Run(ctx) }()

	for _, recs := range sampleTrajectories(art, trips[:3], 200) {
		if err := svc.IngestGPS(recs); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		st := svc.Stats()
		return st.Matched+st.MatchFailed == 3
	}, "3 trajectories processed")
	st := svc.Stats()
	if st.Matched < 2 {
		t.Fatalf("matched %d of 3 synthetic trajectories, want >= 2", st.Matched)
	}
	if st.WindowSize > 2 {
		t.Fatalf("window size %d exceeds configured bound 2", st.WindowSize)
	}
	cancel()
	<-done
}

// TestRetrainDeterministicLineage proves an incremental retrain is a pure
// function of (artifact, ingest sequence, config): two services fed the
// same trajectories produce bit-identical generation-1 models, and the
// lineage chain records the parent fingerprint.
func TestRetrainDeterministicLineage(t *testing.T) {
	art, trips := testWorld(t)
	parentFP, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}

	runOne := func() *pathrank.Artifact {
		svc, err := New(art, Config{QueueSize: 16, Workers: 3, Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9}})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan struct{})
		go func() { defer close(done); _ = svc.Run(ctx) }()
		streams := sampleTrajectories(art, trips[:4], 300)
		for _, recs := range streams {
			if err := svc.IngestGPS(recs); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, 30*time.Second, func() bool {
			st := svc.Stats()
			return st.Matched+st.MatchFailed == int64(len(streams)) && st.Matched > 0
		}, "trajectories processed")
		next, err := svc.RetrainNow()
		if err != nil {
			t.Fatal(err)
		}
		cancel()
		<-done
		return next
	}

	a := runOne()
	b := runOne()
	fpA, err := a.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := b.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Fatalf("incremental retrain not deterministic: %s != %s", fpA, fpB)
	}
	if fpA == parentFP {
		t.Fatal("retrain produced bit-identical weights; fine-tune had no effect")
	}
	if a.Lineage.Generation != 1 {
		t.Fatalf("generation = %d, want 1", a.Lineage.Generation)
	}
	if a.Lineage.Parent != parentFP {
		t.Fatalf("lineage parent = %.12s, want %.12s", a.Lineage.Parent, parentFP)
	}
	if a.Lineage.TrainedOn == 0 || a.Lineage.TotalObserved <= art.Lineage.TotalObserved {
		t.Fatalf("lineage counters not advanced: %+v", a.Lineage)
	}
	// The base artifact must be untouched: it may still be serving.
	baseFP, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if baseFP != parentFP {
		t.Fatal("retrain mutated the serving model")
	}
	// Retraining with an empty window fails cleanly.
	empty, err := New(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.RetrainNow(); err == nil {
		t.Fatal("RetrainNow with no observations should error")
	}
}
