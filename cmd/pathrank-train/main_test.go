package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/geo"
	"pathrank/internal/merkle"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/serve"
	"pathrank/internal/stream"
	"pathrank/internal/traj"
)

// liveArgs are the live-mode settings both tests run with: a retrain every
// 300 ms once 4 new trajectories have matched.
var liveArgs = []string{"-retrain-interval", "300ms", "-retrain-min", "4", "-retrain-epochs", "1"}

// liveWorld is a small world on disk: the trip log's network and the
// offline artifact live mode starts from.
type liveWorld struct {
	g         *roadnet.Graph
	trips     []traj.Trip
	tripsPath string
	artPath   string
	walDir    string
	base      *pathrank.Artifact
}

// newLiveWorld writes an 8×8 network and its trips to a temp dir and
// trains the starting artifact through the offline mode.
func newLiveWorld(t *testing.T) *liveWorld {
	t.Helper()
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.gob")
	tripsPath := filepath.Join(dir, "trips.gob")
	w := &liveWorld{tripsPath: tripsPath, artPath: filepath.Join(dir, "model.prart"), walDir: filepath.Join(dir, "wal")}

	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 8, Cols: 8, SpacingM: 250, JitterFrac: 0.15,
		RemoveFrac: 0.05, ArterialEvery: 4, Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.SaveFile(netPath); err != nil {
		t.Fatal(err)
	}
	trips, err := traj.GenerateTrips(g, traj.NewPopulation(traj.PopulationConfig{NumDrivers: 4, Seed: 42}),
		traj.TripConfig{TripsPerDriver: 3, MinHops: 5, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	var tf bytes.Buffer
	if err := gob.NewEncoder(&tf).Encode(TripsFile{Trips: trips}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tripsPath, tf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{
		"-net", netPath, "-trips", tripsPath, "-m", "8", "-hidden", "6", "-k", "3", "-epochs", "1",
		"-artifact", w.artPath,
	}, nil); err != nil {
		t.Fatalf("offline run: %v", err)
	}
	w.g, w.trips = g, trips
	if w.base, err = pathrank.LoadArtifactFile(w.artPath); err != nil {
		t.Fatal(err)
	}
	return w
}

// startLive runs live mode in-process on the world's artifact and WAL and
// returns its /v1/ingest URL and a stop function that cancels it and
// requires a clean shutdown.
func (w *liveWorld) startLive(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrc := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-artifact", w.artPath, "-wal-dir", w.walDir, "-addr", "127.0.0.1:0"}, args...),
			func(a net.Addr) { addrc <- a })
	}()
	stop := func() {
		t.Helper()
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("live mode: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("live mode did not shut down")
		}
	}
	select {
	case a := <-addrc:
		return fmt.Sprintf("http://%s/v1/ingest", a), stop
	case err := <-done:
		cancel()
		t.Fatalf("live mode exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("live mode did not start listening")
	}
	return "", nil
}

// post ingests trips as seeded noisy GPS traces.
func (w *liveWorld) post(t *testing.T, url string, trips []traj.Trip, seed int64) {
	t.Helper()
	for i, tr := range trips {
		cfg := traj.GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: seed + int64(i)}
		var req api.IngestRequest
		for _, r := range traj.SampleGPS(w.g, tr.Path, cfg) {
			req.Records = append(req.Records, api.GPSSample{Lon: r.Point.Lon, Lat: r.Point.Lat, T: r.TimeOffset})
		}
		body, _ := json.Marshal(req)
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest trajectory %d: status %d", i, resp.StatusCode)
		}
	}
}

// waitGeneration waits until the file at -artifact is generation gen or
// later.
func (w *liveWorld) waitGeneration(t *testing.T, gen int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if a, err := pathrank.LoadArtifactFile(w.artPath); err == nil && a.Lineage.Generation >= gen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("generation %d was not published to -artifact within 30s", gen)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// assertReplays requires the WAL to replay verified onto the file at
// -artifact.
func (w *liveWorld) assertReplays(t *testing.T) *stream.ReplayResult {
	t.Helper()
	published, err := pathrank.LoadArtifactFile(w.artPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := stream.Replay(w.walDir, w.base, 0, t.Logf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Verified || res.Generations != published.Lineage.Generation {
		t.Fatalf("replay: verified=%v over %d generations %v; the published file is generation %d",
			res.Verified, res.Generations, res.Mismatches, published.Lineage.Generation)
	}
	want, err := published.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := res.Artifact.Model.FingerprintHex(); err != nil || got != want {
		t.Fatalf("replayed fingerprint %.12s (%v), published %.12s", got, err, want)
	}
	return res
}

// TestLiveModeSmoke runs the trainer's live mode in-process on a temp
// dir: an offline run writes the starting artifact of a small world, the
// live mode retrains every 300 ms on trajectories posted to /v1/ingest and
// publishes each generation to -artifact, and its -wal-dir replays
// verified onto the final published file.
func TestLiveModeSmoke(t *testing.T) {
	w := newLiveWorld(t)
	url, stop := w.startLive(t, liveArgs...)
	w.post(t, url, w.trips[:6], 100)
	w.waitGeneration(t, 1)
	stop()
	w.assertReplays(t)
}

// TestLiveModeRestartsAfterRefusedGeneration: a server refusing a
// generation leaves the published file to the trainer. A server whose
// canary gate cannot finish in time (a 1 ns budget) refuses generation 1;
// before the next retrain, the trainer and a server both restart on the
// path, the restarted trainer publishes the next generation from the
// refused one, and the WAL replays verified.
func TestLiveModeRestartsAfterRefusedGeneration(t *testing.T) {
	w := newLiveWorld(t)
	srv, err := serve.New(w.base, serve.Config{
		ArtifactPath: w.artPath, WatchInterval: 10 * time.Millisecond,
		CanaryQueries: 4, CanaryTimeout: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	watchCtx, stopWatch := context.WithCancel(context.Background())
	watched := make(chan struct{})
	go func() { defer close(watched); srv.WatchArtifact(watchCtx) }()
	defer func() { stopWatch(); <-watched }()

	url, stop := w.startLive(t, liveArgs...)
	w.post(t, url, w.trips[:6], 100)
	deadline := time.Now().Add(30 * time.Second)
	for rej := srv.LastSwapRejection(); rej == nil || rej.Quarantined == ""; rej = srv.LastSwapRejection() {
		if time.Now().After(deadline) {
			t.Fatal("the server did not refuse generation 1 within 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	stop()
	rej := srv.LastSwapRejection()
	if rej.Generation != 1 || srv.Fingerprint() == rej.Fingerprint {
		t.Fatalf("refusal %+v; want generation 1, not serving", rej)
	}

	refused, err := pathrank.LoadArtifactFile(w.artPath)
	if err != nil {
		t.Fatalf("the refused generation is gone from -artifact: %v", err)
	}
	if fp, _ := refused.Model.FingerprintHex(); fp != rej.Fingerprint {
		t.Fatalf("-artifact holds %.12s, want the refused %.12s", fp, rej.Fingerprint)
	}
	restarted, err := serve.New(refused, serve.Config{ArtifactPath: w.artPath})
	if err != nil {
		t.Fatalf("server restart on the refused file: %v", err)
	}
	restarted.Close()

	url, stop = w.startLive(t, liveArgs...)
	w.post(t, url, w.trips[6:12], 200)
	w.waitGeneration(t, refused.Lineage.Generation+1)
	stop()
	if res := w.assertReplays(t); res.SkippedMarkers != 0 {
		t.Fatalf("replay skipped %d markers", res.SkippedMarkers)
	}
}

// resumeFingerprint is the fingerprint of the model -resume writes on
// TestResumeContinuesProvenance's inputs. The fine-tune sees the same trips
// in the same order under the same seed and schedule, so the weights must
// not move. The value is that of the artifact -resume wrote while params
// still went through encoding/gob (the file is byte-identical to today's),
// loaded and fingerprinted in a process that had gob-encoded nothing else.
// This test's process must get it too, though it gob-encodes a graph and a
// trips file before it trains: a fingerprint does not depend on what the
// process encoded first.
const resumeFingerprint = "c983e9a831a39d8451422f5e706a785ae813281e27c589efd1c10e911ec2bf12"

// TestResumeContinuesProvenance: -resume fine-tunes the offline artifact
// on the world's trip log as one live retrain would. Its child names the
// base as parent, seals the trips into a Merkle batch chained onto the
// base's ChainRoot, counts the trips it trained on, and carries the
// weights -resume has always produced on these inputs.
func TestResumeContinuesProvenance(t *testing.T) {
	w := newLiveWorld(t)
	dir := t.TempDir()
	resumed := filepath.Join(dir, "resumed.prart")
	if err := run(context.Background(), []string{
		"-resume", w.artPath, "-trips", w.tripsPath, "-artifact", resumed,
	}, nil); err != nil {
		t.Fatalf("-resume: %v", err)
	}
	child, err := pathrank.LoadArtifactFile(resumed)
	if err != nil {
		t.Fatal(err)
	}
	lin := child.Lineage
	baseFP, err := w.base.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if lin.Generation != w.base.Lineage.Generation+1 || lin.Parent != baseFP {
		t.Fatalf("child generation %d, parent %.12s; want %d, the base %.12s",
			lin.Generation, lin.Parent, w.base.Lineage.Generation+1, baseFP)
	}
	if lin.TrainedOn != len(w.trips) {
		t.Fatalf("TrainedOn = %d, want the %d trips of the log", lin.TrainedOn, len(w.trips))
	}
	var prev merkle.Hash
	if w.base.Lineage.ChainRoot != "" {
		if prev, err = merkle.ParseHash(w.base.Lineage.ChainRoot); err != nil {
			t.Fatal(err)
		}
	}
	data, err := merkle.ParseHash(lin.DataRoot)
	if err != nil {
		t.Fatalf("child DataRoot %q: %v", lin.DataRoot, err)
	}
	if want := merkle.ChainRoot(prev, data).Hex(); lin.ChainRoot != want {
		t.Fatalf("child ChainRoot %q, want ChainRoot(base chain, DataRoot) = %s", lin.ChainRoot, want)
	}
	if fp, err := child.Model.FingerprintHex(); err != nil || fp != resumeFingerprint {
		t.Fatalf("resumed model fingerprint %s (%v), want %s", fp, err, resumeFingerprint)
	}
}
