package stream

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/fault"
)

// degradedTestService builds a WAL-backed service with workers running
// and retraining disabled (MinObservations out of reach), returning the
// service and a cancel that waits for Run to stop.
func degradedTestService(t *testing.T, cfg Config) (*Service, func()) {
	t.Helper()
	art, _ := testWorld(t)
	if cfg.WALDir == "" {
		cfg.WALDir = t.TempDir()
	}
	if cfg.QueueSize == 0 {
		cfg.QueueSize = 32
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.MinObservations == 0 {
		cfg.MinObservations = 1 << 20
	}
	svc, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = svc.Run(ctx)
	}()
	stop := func() {
		cancel()
		<-done
		if err := svc.Close(); err != nil {
			t.Errorf("close service: %v", err)
		}
	}
	return svc, stop
}

// TestDegradedModeParksAndRecovers is the degraded-mode acceptance path:
// WAL appends fail → the pipeline reports degraded and parks matched
// observations instead of dropping them → the disk recovers → the
// backlog re-syncs into the log and window, and the service reports
// ready. Finally a fresh service over the same WAL directory proves the
// log ⊇ window invariant: every observation the window holds is
// replayable from disk.
func TestDegradedModeParksAndRecovers(t *testing.T) {
	walDir := t.TempDir()
	svc, stop := degradedTestService(t, Config{WALDir: walDir})
	art, trips := testWorld(t)
	recs := sampleTrajectories(art, trips, 500)

	// Healthy baseline: three observations straight into log + window.
	for _, r := range recs[:3] {
		if err := svc.IngestGPS(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return svc.Stats().Matched == 3 }, "baseline matches")
	if h := svc.Health(); h.State != api.PipelineReady {
		t.Fatalf("healthy pipeline reports %q", h.State)
	}

	// Break the disk: every append now fails.
	restore := fault.Enable(fault.NewPlan(1, fault.Rule{Site: fault.SiteWALAppend, Kind: fault.KindError}))
	for _, r := range recs[3:7] {
		if err := svc.IngestGPS(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return svc.Stats().Parked == 4 }, "observations parked")
	st := svc.Stats()
	if !st.Degraded {
		t.Fatalf("stats not degraded with a failing WAL: %+v", st)
	}
	if st.Matched != 3 {
		t.Fatalf("parked observations leaked into matched: %+v", st)
	}
	if st.WALErrors == 0 {
		t.Fatal("no WAL append errors recorded")
	}
	h := svc.Health()
	if h.State != api.PipelineDegraded || h.Parked != 4 || h.Reason == "" {
		t.Fatalf("degraded health = %+v", h)
	}
	if !strings.Contains(h.Reason, "append") {
		t.Fatalf("degraded reason %q does not name the append failure", h.Reason)
	}

	// Window must not contain the parked observations.
	svc.mu.Lock()
	winLen := len(svc.window)
	svc.mu.Unlock()
	if winLen != 3 {
		t.Fatalf("window holds %d observations, want 3 (parked must stay out)", winLen)
	}

	// Heal the disk: the recovery loop drains the backlog and clears the
	// state only after a successful fsync.
	restore()
	waitFor(t, 20*time.Second, func() bool {
		s := svc.Stats()
		return !s.Degraded && s.Parked == 0 && s.Matched == 7
	}, "recovery to ready")
	if h := svc.Health(); h.State != api.PipelineReady || h.Lost != 0 {
		t.Fatalf("post-recovery health = %+v", h)
	}
	stop()

	// WAL ⊇ window: a fresh service over the same directory replays every
	// observation, including the ones that rode out the outage parked.
	svc2, err := New(art, Config{WALDir: walDir, MinObservations: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if svc2.Stats().Recovered != 7 {
		t.Fatalf("recovered %d observations from the WAL, want 7", svc2.Stats().Recovered)
	}
	seen := map[int64]bool{}
	svc2.mu.Lock()
	for _, o := range svc2.windowSnapshotLocked() {
		seen[o.seq] = true
	}
	svc2.mu.Unlock()
	for seq := int64(1); seq <= 7; seq++ {
		if !seen[seq] {
			t.Fatalf("observation seq %d missing from the replayed window (have %v)", seq, seen)
		}
	}
}

// TestDegradedBufferOverflowBoundsLoss: when the outage outlasts the
// parking buffer, the oldest parked observations are dropped and counted
// — losses are bounded and visible, never silent.
func TestDegradedBufferOverflowBoundsLoss(t *testing.T) {
	svc, stop := degradedTestService(t, Config{Window: 2})
	defer stop()
	art, trips := testWorld(t)
	recs := sampleTrajectories(art, trips, 900)

	restore := fault.Enable(fault.NewPlan(1, fault.Rule{Site: fault.SiteWALAppend, Kind: fault.KindError}))
	defer restore()
	for _, r := range recs[:5] {
		if err := svc.IngestGPS(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		s := svc.Stats()
		return s.Parked == 2 && s.Lost == 3
	}, "bounded parking buffer")
	if h := svc.Health(); h.Lost != 3 || h.Parked != 2 {
		t.Fatalf("overflow health = %+v", h)
	}
}

// TestMatchWorkerPanicContained: an injected panic in the match path is
// recovered and counted, and the SAME worker pool keeps matching
// subsequent trajectories — one poisoned input cannot stop ingest.
func TestMatchWorkerPanicContained(t *testing.T) {
	svc, stop := degradedTestService(t, Config{Workers: 1})
	defer stop()
	art, trips := testWorld(t)
	recs := sampleTrajectories(art, trips, 1300)

	restore := fault.Enable(fault.NewPlan(1, fault.Rule{Site: fault.SiteMatch, Kind: fault.KindPanic, Times: 2}))
	defer restore()
	for _, r := range recs[:5] {
		if err := svc.IngestGPS(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		s := svc.Stats()
		return s.WorkerPanics == 2 && s.Matched == 3
	}, "two contained panics, three matches")
	if h := svc.Health(); h.State != api.PipelineReady || h.WorkerPanics != 2 {
		t.Fatalf("health after contained panics = %+v", h)
	}
}

// TestRetrainPanicContained: a panic inside the fine-tune step fails
// that retrain cleanly (previous generation stays current) and the next
// retrain succeeds.
func TestRetrainPanicContained(t *testing.T) {
	svc, stop := degradedTestService(t, Config{})
	defer stop()
	art, trips := testWorld(t)
	recs := sampleTrajectories(art, trips, 1700)
	for _, r := range recs[:3] {
		if err := svc.IngestGPS(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return svc.Stats().Matched == 3 }, "matches before retrain")
	gen := svc.Artifact().Lineage.Generation

	restore := fault.Enable(fault.NewPlan(1, fault.Rule{Site: fault.SiteRetrain, Kind: fault.KindPanic, Times: 1}))
	defer restore()
	if _, err := svc.RetrainNow(); err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("RetrainNow under an injected panic = %v, want a contained panic error", err)
	}
	if got := svc.Artifact().Lineage.Generation; got != gen {
		t.Fatalf("failed retrain advanced the generation: %d -> %d", gen, got)
	}
	if svc.Stats().WorkerPanics != 1 {
		t.Fatalf("worker panics = %d, want 1", svc.Stats().WorkerPanics)
	}

	// The rule is exhausted (times=1): the next retrain goes through.
	next, err := svc.RetrainNow()
	if err != nil {
		t.Fatalf("retrain after the contained panic: %v", err)
	}
	if next.Lineage.Generation != gen+1 {
		t.Fatalf("post-panic retrain generation %d, want %d", next.Lineage.Generation, gen+1)
	}
}

// TestRetrainSyncFaultMarksDegraded: a failing retrain-boundary fsync
// (not an append) must also flip the degraded state, and the recovery
// loop must clear it once fsync succeeds again — the drain-zero path.
func TestRetrainSyncFaultMarksDegraded(t *testing.T) {
	svc, stop := degradedTestService(t, Config{})
	defer stop()
	art, trips := testWorld(t)
	recs := sampleTrajectories(art, trips, 2100)
	for _, r := range recs[:3] {
		if err := svc.IngestGPS(r); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return svc.Stats().Matched == 3 }, "matches before retrain")

	restore := fault.Enable(fault.NewPlan(1, fault.Rule{Site: fault.SiteWALSync, Kind: fault.KindError}))
	if _, err := svc.RetrainNow(); !errors.Is(err, fault.ErrInjected) {
		restore()
		t.Fatalf("RetrainNow under a failing fsync = %v, want ErrInjected", err)
	}
	if h := svc.Health(); h.State != api.PipelineDegraded {
		restore()
		t.Fatalf("health after a failed retrain fsync = %+v, want degraded", h)
	}
	restore()
	waitFor(t, 20*time.Second, func() bool { return svc.Health().State == api.PipelineReady }, "fsync recovery")
}
