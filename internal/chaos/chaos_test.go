package chaos

import (
	"io"
	"net/http"
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
// shapes) lands on the artifact path and the server's watcher reloads it
// under live query load. The canary gate must refuse it, quarantine a
// copy, and the old snapshot must answer every request throughout.
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
	badFP, err := bad.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if err := pathrank.SaveArtifactFile(h.artPath, bad); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		rej := h.srv.LastSwapRejection()
		return rej != nil && rej.Quarantined != ""
	}, "the watcher's reload of the poisoned artifact to be refused")
	if rej := h.srv.LastSwapRejection(); rej.Fingerprint != badFP {
		t.Fatalf("refused %.12s, want the poisoned artifact %.12s", rej.Fingerprint, badFP)
	}

	// The poisoned generation was never served.
	if got := h.srv.Fingerprint(); got != before {
		t.Fatalf("serving fingerprint changed under a rejected artifact: %s -> %s", before, got)
	}
	// A copy of the bad file is quarantined next to it; the file itself
	// stays where its publisher put it.
	rej := h.srv.LastSwapRejection()
	if filepath.Dir(rej.Quarantined) != filepath.Dir(h.artPath) {
		t.Fatalf("quarantined outside the artifact directory: %s", rej.Quarantined)
	}
	for _, p := range []string{rej.Quarantined, h.artPath} {
		if got := fingerprintAt(t, p); got != badFP {
			t.Fatalf("%s holds %.12s, want the poisoned artifact %.12s", p, got, badFP)
		}
	}

	// A good artifact replaces the bad one: the watcher swaps it in
	// normally, and never re-offered the refused file in between (the
	// metrics check below counts one rejection).
	time.Sleep(100 * time.Millisecond) // ten watch intervals on the refused file
	if err := pathrank.SaveArtifactFile(h.artPath, art); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return h.swaps(t) == 1 }, "the healthy artifact to swap in after quarantine")

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
// injected WAL append failures flip the trainer's /healthz to degraded
// while the server keeps answering queries; when the fault lifts, the parked backlog re-syncs
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
// ingest over HTTP → explicit retrain → the new generation persisted to
// the artifact file → the server's watcher swaps it in through the canary
// gate — generation and fingerprint both advance, under live load, with
// zero failed requests.
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
	nextFP, err := next.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	if nextFP == before {
		t.Fatal("retrain produced the serving model again; the publish would be vacuous")
	}
	waitFor(t, 10*time.Second, func() bool { return h.srv.Fingerprint() == nextFP },
		"the watcher to publish generation 1 through the canary gate")
	assertCleanLoad(t, stats, stop, wait)
}

// TestRefusedGenerationKeepsWALReplayable is the regression test for a
// refused publish forking the lineage. The trainer commits generations 1
// and 2; the server refuses generation 1, because the file its watcher
// reads is NaN-poisoned first. A refusal is the server's business alone:
// the trainer trains generation 2 from generation 1, the WAL replays
// verified, the refused file is quarantined, the server never serves
// generation 1 and serves generation 2, and no request fails.
func TestRefusedGenerationKeepsWALReplayable(t *testing.T) {
	h := newHarness(t)
	art, trips := testWorld(t)
	recs := sampleGPS(art, trips, chaosSeed()*4000)

	// Every fingerprint the server serves, sampled until the end; read
	// only after the sampler has exited.
	served := make(map[string]bool)
	stopWatch := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			served[h.srv.Fingerprint()] = true
			select {
			case <-stopWatch:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	stop := make(chan struct{})
	stats, wait := h.startLoad(t, stop)

	// Hold the watcher's next artifact load at its entry long enough to
	// poison the file it is about to open: one delay at artifact/load.
	plan := fault.NewPlan(chaosSeed(), fault.Rule{Site: fault.SiteArtifactLoad, Kind: fault.KindDelay, Delay: 2 * time.Second, Times: 1})
	defer fault.Enable(plan)()

	for _, r := range recs[:4] {
		h.ingest(t, r)
	}
	waitFor(t, 10*time.Second, func() bool { return h.svc.Stats().Matched == 4 }, "matches before generation 1")
	gen1, err := h.svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	fp1, err := gen1.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return plan.Hits(fault.SiteArtifactLoad) == 1 }, "the watcher to start loading generation 1")
	bad, err := PoisonArtifact(gen1)
	if err != nil {
		t.Fatal(err)
	}
	bad.Lineage = gen1.Lineage
	if err := pathrank.SaveArtifactFile(h.artPath, bad); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		rej := h.srv.LastSwapRejection()
		return rej != nil && rej.Quarantined != ""
	}, "the server to refuse generation 1")
	rej := h.srv.LastSwapRejection()
	if rej.Generation != 1 {
		t.Fatalf("refused generation %d, want 1", rej.Generation)
	}
	if got := fingerprintAt(t, rej.Quarantined); got != rej.Fingerprint {
		t.Fatalf("quarantine holds %.12s, want the refused %.12s", got, rej.Fingerprint)
	}
	// The refused file stays at the path, so a server restarting on it
	// before the next retrain still starts.
	atPath, err := pathrank.LoadArtifactFile(h.artPath)
	if err != nil {
		t.Fatalf("artifact path after the refusal: %v", err)
	}
	restarted, err := serve.New(atPath, serve.Config{ArtifactPath: h.artPath})
	if err != nil {
		t.Fatalf("server restart on the refused file: %v", err)
	}
	restarted.Close()

	for _, r := range recs[4:8] {
		h.ingest(t, r)
	}
	waitFor(t, 10*time.Second, func() bool { return h.svc.Stats().Matched == 8 }, "matches before generation 2")
	gen2, err := h.svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if gen2.Lineage.Generation != 2 || gen2.Lineage.Parent != fp1 {
		t.Fatalf("generation 2 lineage %+v, want parent %.12s", gen2.Lineage, fp1)
	}
	fp2, err := gen2.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool { return h.srv.Fingerprint() == fp2 }, "the server to swap in generation 2")

	assertCleanLoad(t, stats, stop, wait)
	close(stopWatch)
	<-watched
	if served[fp1] {
		t.Fatalf("the server served the refused generation 1 (%.12s)", fp1)
	}

	h.shutdown(t)
	res, err := stream.Replay(h.walDir, art, 0, t.Logf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.Verified || res.Generations != 2 || res.SkippedMarkers != 0 {
		t.Fatalf("replay: verified=%v, %d generations, %d skipped markers (%v); want verified, 2, 0",
			res.Verified, res.Generations, res.SkippedMarkers, res.Mismatches)
	}
	if got, err := res.Artifact.Model.FingerprintHex(); err != nil || got != fp2 {
		t.Fatalf("replayed fingerprint %.12s (%v), want generation 2's %.12s", got, err, fp2)
	}
}

// fingerprintAt loads the artifact file at path and returns its model's
// fingerprint.
func fingerprintAt(t *testing.T, path string) string {
	t.Helper()
	art, err := pathrank.LoadArtifactFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// sampleGPS converts trips into seeded noisy GPS streams.
func sampleGPS(art *pathrank.Artifact, trips []traj.Trip, seed int64) [][]traj.GPSRecord {
	out := make([][]traj.GPSRecord, 0, len(trips))
	for i, tr := range trips {
		cfg := traj.GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: seed + int64(i)}
		out = append(out, traj.SampleGPS(art.Graph, tr.Path, cfg))
	}
	return out
}
