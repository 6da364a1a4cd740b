package chaos

import (
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/fault"
	"pathrank/internal/pathrank"
	"pathrank/internal/serve"
	"pathrank/internal/stream"
	"pathrank/internal/traj"
)

// mustPlan compiles a fault spec with the scenario seed.
func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	plan, err := fault.ParseSpec(spec, chaosSeed())
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestChaosCanaryRejectsCorruptArtifact is acceptance scenario (a): a
// corrupt-but-loadable artifact (NaN-poisoned weights, valid bytes and
// shapes) lands on the artifact path and is reloaded under live query
// load. The canary gate must refuse it, quarantine the file, and the
// old snapshot must answer every request throughout.
func TestChaosCanaryRejectsCorruptArtifact(t *testing.T) {
	h := newHarness(t)
	art, _ := testWorld(t)
	before := h.srv.Fingerprint()

	stop := make(chan struct{})
	stats, wait := h.startLoad(t, stop)
	time.Sleep(50 * time.Millisecond) // load flowing before the fault

	bad, err := PoisonArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := pathrank.SaveArtifactFile(h.artPath, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.Reload(h.artPath); !errors.Is(err, serve.ErrSwapRejected) {
		t.Fatalf("Reload(poisoned) = %v, want ErrSwapRejected", err)
	}

	// The poisoned generation was never served.
	if got := h.srv.Fingerprint(); got != before {
		t.Fatalf("serving fingerprint changed under a rejected artifact: %s -> %s", before, got)
	}
	// The bad file is quarantined, out of the watcher's path.
	if _, err := os.Stat(h.artPath); !os.IsNotExist(err) {
		t.Fatalf("rejected artifact still at %s", h.artPath)
	}
	rej := h.srv.LastSwapRejection()
	if rej == nil || rej.Quarantined == "" {
		t.Fatalf("no quarantine recorded: %+v", rej)
	}
	if filepath.Dir(rej.Quarantined) != filepath.Dir(h.artPath) {
		t.Fatalf("quarantined outside the artifact directory: %s", rej.Quarantined)
	}

	// A good artifact recovers the path: save and reload swaps normally.
	if err := pathrank.SaveArtifactFile(h.artPath, art); err != nil {
		t.Fatal(err)
	}
	if _, err := h.srv.Reload(h.artPath); err != nil {
		t.Fatalf("reload of the healthy artifact after quarantine: %v", err)
	}

	time.Sleep(50 * time.Millisecond) // load continuing after the fault
	assertCleanLoad(t, stats, stop, wait)

	// The refusal is on the metrics surface.
	resp, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "pathrank_swap_rejected_total 1") {
		t.Fatal("pathrank_swap_rejected_total not incremented on /metrics")
	}
}

// TestChaosWALFailureDegradesAndRecovers is acceptance scenario (b):
// injected WAL append failures flip /healthz to degraded while queries
// keep being answered; when the fault lifts, the parked backlog re-syncs
// and the service reports ready — and a fresh pipeline over the same WAL
// directory replays every observation (log ⊇ window held throughout).
func TestChaosWALFailureDegradesAndRecovers(t *testing.T) {
	h := newHarness(t)
	art, trips := testWorld(t)
	recs := sampleGPS(art, trips, chaosSeed()*1000)

	stop := make(chan struct{})
	stats, wait := h.startLoad(t, stop)

	for _, r := range recs[:3] {
		h.ingest(t, r)
	}
	waitFor(t, 10*time.Second, func() bool { return h.svc.Stats().Matched == 3 }, "baseline matches")
	if hz := h.healthz(t); hz.Status != "ok" || hz.Pipeline == nil || hz.Pipeline.State != api.PipelineReady {
		t.Fatalf("baseline healthz = %+v", hz)
	}

	restore := fault.Enable(mustPlan(t, "wal/append:error"))
	for _, r := range recs[3:7] {
		h.ingest(t, r)
	}
	waitFor(t, 10*time.Second, func() bool {
		hz := h.healthz(t)
		return hz.Pipeline != nil && hz.Pipeline.State == api.PipelineDegraded && hz.Pipeline.Parked == 4
	}, "degraded healthz with the backlog parked")
	hz := h.healthz(t)
	if hz.Status != api.PipelineDegraded {
		t.Fatalf("top-level health status %q while the pipeline is degraded", hz.Status)
	}
	if hz.Pipeline.Reason == "" || hz.Pipeline.Lost != 0 {
		t.Fatalf("degraded pipeline block = %+v", hz.Pipeline)
	}

	restore()
	waitFor(t, 20*time.Second, func() bool {
		s := h.svc.Stats()
		return !s.Degraded && s.Parked == 0 && s.Matched == 7
	}, "recovery to ready")
	if hz := h.healthz(t); hz.Status != "ok" || hz.Pipeline.State != api.PipelineReady {
		t.Fatalf("post-recovery healthz = %+v", hz)
	}

	// Queries never suffered.
	assertCleanLoad(t, stats, stop, wait)

	// Log ⊇ window: shut the harness down to release the log, then replay
	// the same directory into a fresh pipeline — all 7 observations,
	// including the 4 that rode out the outage parked, must come back.
	h.shutdown(t)
	svc2, err := stream.New(art, stream.Config{WALDir: h.walDir, MinObservations: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if got := svc2.Stats().Recovered; got != 7 {
		t.Fatalf("replayed %d observations from the WAL, want 7 (parked backlog lost?)", got)
	}
}

// TestChaosWorkerPanicContained is acceptance scenario (c): a seeded
// panic schedule kills match workers mid-trajectory. The panics must be
// contained (counted, workers keep draining), ingest must continue, and
// zero HTTP requests may fail.
func TestChaosWorkerPanicContained(t *testing.T) {
	h := newHarness(t)
	art, trips := testWorld(t)
	recs := sampleGPS(art, trips, chaosSeed()*2000)

	stop := make(chan struct{})
	stats, wait := h.startLoad(t, stop)

	restore := fault.Enable(mustPlan(t, "stream/match:panic:times=2"))
	defer restore()
	for _, r := range recs[:5] {
		h.ingest(t, r)
	}
	waitFor(t, 10*time.Second, func() bool {
		s := h.svc.Stats()
		return s.WorkerPanics == 2 && s.Matched == 3
	}, "two contained panics, ingest continuing")

	hz := h.healthz(t)
	if hz.Status != "ok" {
		t.Fatalf("contained panics must not degrade health: %+v", hz)
	}
	if hz.Pipeline.WorkerPanics != 2 {
		t.Fatalf("healthz worker_panics = %d, want 2", hz.Pipeline.WorkerPanics)
	}
	assertCleanLoad(t, stats, stop, wait)
}

// TestChaosRetrainPublishesThroughCanary closes the loop end to end:
// ingest over HTTP → explicit retrain → the new generation published
// through the canary-gated hot swap — generation and fingerprint both
// advance, under live load, with zero failed requests.
func TestChaosRetrainPublishesThroughCanary(t *testing.T) {
	h := newHarness(t)
	art, trips := testWorld(t)
	recs := sampleGPS(art, trips, chaosSeed()*3000)

	stop := make(chan struct{})
	stats, wait := h.startLoad(t, stop)

	for _, r := range recs[:4] {
		h.ingest(t, r)
	}
	waitFor(t, 10*time.Second, func() bool { return h.svc.Stats().Matched == 4 }, "matches before retrain")

	before := h.srv.Fingerprint()
	next, err := h.svc.RetrainNow()
	if err != nil {
		t.Fatalf("retrain: %v", err)
	}
	if next.Lineage.Generation != 1 {
		t.Fatalf("retrained generation %d, want 1", next.Lineage.Generation)
	}
	if got := h.srv.Fingerprint(); got == before {
		t.Fatal("publish through the canary gate did not swap the serving snapshot")
	}
	assertCleanLoad(t, stats, stop, wait)
}

// sampleGPS converts trips into seeded noisy GPS streams.
func sampleGPS(art *pathrank.Artifact, trips []traj.Trip, seed int64) [][]traj.GPSRecord {
	out := make([][]traj.GPSRecord, 0, len(trips))
	for i, tr := range trips {
		cfg := traj.DefaultGPSConfig()
		cfg.Seed = seed + int64(i)
		out = append(out, traj.SampleGPS(art.Graph, tr.Path, cfg))
	}
	return out
}
