package stream

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pathrank/internal/fault"
	"pathrank/internal/merkle"
	"pathrank/internal/pathrank"
	"pathrank/internal/traj"
)

// ingestAll runs the service's workers just long enough to push streams
// through map matching.
func ingestAll(t *testing.T, svc *Service, streams [][]traj.GPSRecord) {
	t.Helper()
	before := svc.Stats()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = svc.Run(ctx) }()
	defer func() { cancel(); <-done }()
	for _, recs := range streams {
		if err := svc.IngestGPS(recs); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		st := svc.Stats()
		return st.Matched+st.MatchFailed+st.WALErrors-before.Matched-before.MatchFailed-before.WALErrors == int64(len(streams))
	}, "trajectories processed")
}

// sortedWindow returns the service's window sorted by seq.
func sortedWindow(svc *Service) []observation {
	svc.mu.Lock()
	w := svc.windowSnapshotLocked()
	svc.mu.Unlock()
	sort.Slice(w, func(a, b int) bool { return w[a].seq < w[b].seq })
	return w
}

func fingerprint(t *testing.T, art *pathrank.Artifact) string {
	t.Helper()
	fp, err := art.Model.FingerprintHex()
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// TestWALWindowRecovery proves a restarted service rebuilds its window
// from the log: same observations, same seqs, same paths, and the ingest
// sequence resumes past everything logged.
func TestWALWindowRecovery(t *testing.T) {
	art, trips := testWorld(t)
	dir := t.TempDir()
	cfg := Config{QueueSize: 16, Workers: 2, WALDir: dir}

	svc1, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc1, sampleTrajectories(art, trips[:4], 400))
	w1 := sortedWindow(svc1)
	if len(w1) == 0 {
		t.Fatal("no observations matched; cannot exercise recovery")
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2, err := New(art, cfg)
	if err != nil {
		t.Fatalf("reopen with WAL: %v", err)
	}
	defer svc2.Close()
	w2 := sortedWindow(svc2)
	if len(w2) != len(w1) {
		t.Fatalf("recovered window has %d observations, want %d", len(w2), len(w1))
	}
	for i := range w1 {
		if w2[i].seq != w1[i].seq || !pathEqual(w2[i].path, w1[i].path) {
			t.Fatalf("recovered observation %d differs: seq %d vs %d", i, w2[i].seq, w1[i].seq)
		}
	}
	st := svc2.Stats()
	if st.Recovered != len(w1) {
		t.Fatalf("Stats.Recovered = %d, want %d", st.Recovered, len(w1))
	}
	if st.PendingTrain != len(w1) {
		t.Fatalf("PendingTrain = %d, want %d (no retrain marker in the log)", st.PendingTrain, len(w1))
	}
	// New ingests must continue the sequence past everything recovered.
	ingestAll(t, svc2, sampleTrajectories(art, trips[4:5], 410))
	maxSeq := w1[len(w1)-1].seq
	w3 := sortedWindow(svc2)
	if last := w3[len(w3)-1]; len(w3) != len(w1)+1 || last.seq <= maxSeq {
		t.Fatalf("post-recovery ingest got seq %d, want > %d", last.seq, maxSeq)
	}
}

// TestWALTornTailRecovery proves a torn final write (a crash mid-append)
// costs exactly the torn bytes: the service reopens, keeps every intact
// observation, and reports the damage.
func TestWALTornTailRecovery(t *testing.T) {
	art, trips := testWorld(t)
	dir := t.TempDir()
	cfg := Config{QueueSize: 16, Workers: 2, WALDir: dir}

	svc1, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc1, sampleTrajectories(art, trips[:3], 420))
	w1 := sortedWindow(svc1)
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: a partial frame that a crash mid-write would leave.
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x00, 0x00, 0x01} // looks like the start of a length field
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2, err := New(art, cfg)
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer svc2.Close()
	w2 := sortedWindow(svc2)
	if len(w2) != len(w1) {
		t.Fatalf("recovered %d observations after torn tail, want %d", len(w2), len(w1))
	}
	info := svc2.Provenance()
	if info.WAL == nil {
		t.Fatal("Provenance().WAL is nil with the WAL enabled")
	}
	if info.WAL.TornBytes != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want %d", info.WAL.TornBytes, len(torn))
	}
}

// TestDeterministicReplay is the acceptance test for the durable loop:
// replaying the WAL of a live two-generation run against the base
// artifact reproduces each generation's model fingerprint bit-for-bit,
// plus the Merkle data and chain roots stamped into its lineage.
func TestDeterministicReplay(t *testing.T) {
	art, trips := testWorld(t)
	walDir := t.TempDir()
	cfg := Config{
		QueueSize: 16, Workers: 3, WALDir: walDir,
		Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9},
	}
	svc, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}

	ingestAll(t, svc, sampleTrajectories(art, trips[:4], 500))
	gen1, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc, sampleTrajectories(art, trips[4:8], 600))
	gen2, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	fp1, fp2 := fingerprint(t, gen1), fingerprint(t, gen2)
	if gen2.Lineage.DataRoot == "" || gen2.Lineage.ChainRoot == "" {
		t.Fatalf("lineage missing provenance roots: %+v", gen2.Lineage)
	}

	// Full replay from the offline base.
	res, err := Replay(walDir, art, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified {
		t.Fatalf("replay not verified: %v", res.Mismatches)
	}
	if res.Generations != 2 || res.SkippedMarkers != 0 {
		t.Fatalf("replayed %d generations (%d skipped), want 2 (0 skipped)", res.Generations, res.SkippedMarkers)
	}
	if got := fingerprint(t, res.Artifact); got != fp2 {
		t.Fatalf("replayed fingerprint %s != live %s", got, fp2)
	}
	if res.Artifact.Lineage.DataRoot != gen2.Lineage.DataRoot ||
		res.Artifact.Lineage.ChainRoot != gen2.Lineage.ChainRoot {
		t.Fatalf("replayed lineage roots differ: %+v vs %+v", res.Artifact.Lineage, gen2.Lineage)
	}

	// Bounded replay stops at the target generation.
	res1, err := Replay(walDir, art, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Generations != 1 || fingerprint(t, res1.Artifact) != fp1 {
		t.Fatalf("targeted replay produced generation %d fingerprint %s, want 1 / %s",
			res1.Generations, fingerprint(t, res1.Artifact), fp1)
	}

	// Replaying from a mid-chain artifact skips the markers it already
	// embodies and continues from there.
	resMid, err := Replay(walDir, gen1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resMid.Generations != 1 || resMid.SkippedMarkers != 1 {
		t.Fatalf("mid-chain replay: %d generations, %d skipped, want 1/1", resMid.Generations, resMid.SkippedMarkers)
	}
	if got := fingerprint(t, resMid.Artifact); got != fp2 {
		t.Fatalf("mid-chain replayed fingerprint %s != live %s", got, fp2)
	}

	// A wrong base artifact is detected, not silently replayed over.
	if _, err := Replay(walDir, gen2, 0, nil); err == nil {
		// gen2's next marker would be generation 3, which does not exist:
		// replay just finds nothing to do. That is fine. But replaying onto
		// a base whose parent fingerprint cannot chain must error; build
		// that case by handing gen1's lineage with gen2's model.
		wrong := *gen1
		wrong.Model = gen2.Model
		if _, err := Replay(walDir, &wrong, 0, nil); err == nil {
			t.Fatal("replay chained a marker onto the wrong parent model")
		}
	}
}

// TestKillMidRetrain simulates dying right after a retrain commits: the
// artifact and its retrain marker are durable, the in-memory pipeline is
// gone. The marker is the last step of a retrain (publishing is the
// servers reading the persisted file), so this is the latest point a crash
// can interrupt a committed generation. A service restarted from the
// persisted artifact and the WAL must end up on the same lineage chain
// and the same final model as a run that never crashed.
func TestKillMidRetrain(t *testing.T) {
	art, trips := testWorld(t)
	batchA := sampleTrajectories(art, trips[:4], 700)
	batchB := sampleTrajectories(art, trips[4:8], 710)
	train := pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9}

	// Control: the same ingest schedule with no crash.
	ctrlDir := t.TempDir()
	ctrl, err := New(art, Config{QueueSize: 16, Workers: 2, WALDir: ctrlDir, Train: train})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ctrl, batchA)
	if _, err := ctrl.RetrainNow(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, ctrl, batchB)
	ctrlGen2, err := ctrl.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Close()

	// Crashing run: generation 1 commits, then the process dies. svc1 is
	// dropped without Close; its log handle is released only when the test
	// ends, as the kernel would release a dead process's.
	walDir := t.TempDir()
	artPath := filepath.Join(t.TempDir(), "live.pathrank")
	svc1, err := New(art, Config{QueueSize: 16, Workers: 2, WALDir: walDir, ArtifactPath: artPath, Train: train})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc1.Close() })
	ingestAll(t, svc1, batchA)
	if _, err := svc1.RetrainNow(); err != nil {
		t.Fatal(err)
	}

	// Restart from what survived: the persisted artifact plus the WAL.
	persisted, err := pathrank.LoadArtifactFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if persisted.Lineage.Generation != 1 {
		t.Fatalf("persisted artifact is generation %d, want 1", persisted.Lineage.Generation)
	}
	if persisted.Lineage.DataRoot == "" || persisted.Lineage.ChainRoot == "" {
		t.Fatalf("persisted lineage missing provenance roots: %+v", persisted.Lineage)
	}
	svc2, err := New(persisted, Config{QueueSize: 16, Workers: 2, WALDir: walDir, Train: train})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st := svc2.Stats()
	if st.Recovered == 0 {
		t.Fatal("restart recovered nothing from the WAL")
	}
	if st.PendingTrain != 0 {
		t.Fatalf("PendingTrain = %d after restart, want 0 (marker closed the window)", st.PendingTrain)
	}
	// The rebuilt window must match the control's at the same point.
	ctrlAfterA, err := Replay(ctrlDir, art, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, persisted); got != fingerprint(t, ctrlAfterA.Artifact) {
		t.Fatal("crashed run's persisted generation 1 differs from the control's")
	}

	ingestAll(t, svc2, batchB)
	gen2, err := svc2.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprint(t, gen2), fingerprint(t, ctrlGen2); got != want {
		t.Fatalf("post-crash generation 2 fingerprint %s != control %s", got, want)
	}
	if gen2.Lineage.ChainRoot != ctrlGen2.Lineage.ChainRoot || gen2.Lineage.DataRoot != ctrlGen2.Lineage.DataRoot {
		t.Fatalf("post-crash lineage chain diverged: %+v vs %+v", gen2.Lineage, ctrlGen2.Lineage)
	}
	if gen2.Lineage.Parent != fingerprint(t, persisted) {
		t.Fatal("generation 2 does not chain to the recovered generation 1")
	}
}

// TestMarkerFailurePublishesNothing: a retrain whose WAL marker append
// fails has not committed, so it must not publish — the watched file keeps
// the previous generation and no staged file is left beside it. The next
// retrain (after more ingest) then publishes the next generation exactly
// once, and Replay of the log reproduces the published bytes.
func TestMarkerFailurePublishesNothing(t *testing.T) {
	art, trips := testWorld(t)
	walDir := t.TempDir()
	artDir := t.TempDir()
	artPath := filepath.Join(artDir, "live.prart")
	if err := pathrank.SaveArtifactFile(artPath, art); err != nil {
		t.Fatal(err)
	}
	base, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(art, Config{
		QueueSize: 16, Workers: 2, WALDir: walDir, ArtifactPath: artPath,
		Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingestAll(t, svc, sampleTrajectories(art, trips[:4], 800))

	restore := fault.Enable(fault.NewPlan(1, fault.Rule{Site: fault.SiteWALAppend, Kind: fault.KindError}))
	_, err = svc.RetrainNow()
	restore()
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("RetrainNow with a failing marker append = %v, want ErrInjected", err)
	}
	if got, err := os.ReadFile(artPath); err != nil || !bytes.Equal(got, base) {
		t.Fatalf("watched file changed although the marker never reached the log (read err %v)", err)
	}
	if entries, err := os.ReadDir(artDir); err != nil || len(entries) != 1 {
		t.Fatalf("artifact directory holds %d entries after the failed retrain, want 1 (err %v)", len(entries), err)
	}
	if st := svc.Stats(); st.Generation != art.Lineage.Generation || st.RetrainErrors != 1 {
		t.Fatalf("after the failed retrain: generation %d, %d retrain errors; want %d, 1",
			st.Generation, st.RetrainErrors, art.Lineage.Generation)
	}

	ingestAll(t, svc, sampleTrajectories(art, trips[4:8], 810))
	next, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if next.Lineage.Generation != art.Lineage.Generation+1 {
		t.Fatalf("next retrain published generation %d, want %d", next.Lineage.Generation, art.Lineage.Generation+1)
	}
	published, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(walDir, art, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Generations != 1 || res.SkippedMarkers != 0 {
		t.Fatalf("replay: verified=%v, %d generations, %d skipped; want true, 1, 0",
			res.Verified, res.Generations, res.SkippedMarkers)
	}
	var replayed bytes.Buffer
	if err := pathrank.SaveArtifact(&replayed, res.Artifact); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replayed.Bytes(), published) {
		t.Fatal("replayed generation differs from the published file")
	}
}

// TestRenameFailureStillCommits: once the marker is synced the generation
// is committed, so a failing rename is surfaced but the service adopts the
// generation anyway — the next marker then chains onto it and the log
// replays as one unbroken chain.
func TestRenameFailureStillCommits(t *testing.T) {
	art, trips := testWorld(t)
	walDir := t.TempDir()
	artDir := t.TempDir()
	// A directory at the watched path makes the rename fail.
	artPath := filepath.Join(artDir, "live.prart")
	if err := os.MkdirAll(filepath.Join(artPath, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	svc, err := New(art, Config{
		QueueSize: 16, Workers: 2, WALDir: walDir, ArtifactPath: artPath,
		Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ingestAll(t, svc, sampleTrajectories(art, trips[:4], 820))
	gen1, err := svc.RetrainNow()
	if err == nil || gen1 == nil {
		t.Fatalf("RetrainNow onto an unrenamable path = (%v, %v), want the committed generation and an error", gen1, err)
	}
	if st := svc.Stats(); st.Generation != art.Lineage.Generation+1 {
		t.Fatalf("service generation %d after a committed retrain, want %d", st.Generation, art.Lineage.Generation+1)
	}
	if entries, err := os.ReadDir(artDir); err != nil || len(entries) != 1 {
		t.Fatalf("artifact directory holds %d entries after the failed rename, want 1 (err %v)", len(entries), err)
	}

	ingestAll(t, svc, sampleTrajectories(art, trips[4:8], 830))
	if _, err := svc.RetrainNow(); err == nil {
		t.Fatal("second retrain onto the unrenamable path reported no error")
	}
	res, err := Replay(walDir, art, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Generations != 2 {
		t.Fatalf("replay: verified=%v, %d generations; want true, 2", res.Verified, res.Generations)
	}
	if res.Artifact.Lineage.Parent != fingerprint(t, gen1) {
		t.Fatal("generation 2 does not chain onto the committed generation 1")
	}
}

// TestRestartBehindLogCatchesUp: a crash between a retrain's synced
// marker and its rename leaves the watched file one generation behind the
// log (here the rename fails because a directory sits at the path). A
// restart from that file on the same WAL must not fork the chain: it
// re-derives the logged generation, serves and publishes it, and the next
// retrain chains onto it, so the log replays verified with no skipped
// marker. A restart on an artifact the logged chain does not continue
// fails and trains nothing.
func TestRestartBehindLogCatchesUp(t *testing.T) {
	art, trips := testWorld(t)
	walDir := t.TempDir()
	artPath := filepath.Join(t.TempDir(), "live.prart")
	if err := os.MkdirAll(filepath.Join(artPath, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		QueueSize: 16, Workers: 2, WALDir: walDir, ArtifactPath: artPath,
		Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9},
	}
	svc1, err := New(art, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, svc1, sampleTrajectories(art, trips[:4], 840))
	gen1, err := svc1.RetrainNow()
	if err == nil || gen1 == nil {
		t.Fatalf("RetrainNow onto an unrenamable path = (%v, %v), want the committed generation and an error", gen1, err)
	}
	fp1 := fingerprint(t, gen1)
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	// What the crash left: the generation-0 file at the watched path.
	if err := os.RemoveAll(artPath); err != nil {
		t.Fatal(err)
	}
	if err := pathrank.SaveArtifactFile(artPath, art); err != nil {
		t.Fatal(err)
	}
	stale, err := pathrank.LoadArtifactFile(artPath)
	if err != nil {
		t.Fatal(err)
	}

	// An artifact from another chain: generation 0, but not the model the
	// logged generation 1 was trained from.
	foreign := *art
	foreign.Model = gen1.Model
	walBefore := readDir(t, walDir)
	fileBefore, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if svc, err := New(&foreign, cfg); err == nil {
		svc.Close()
		t.Fatal("New restarted on an artifact the logged chain does not continue")
	} else if !strings.Contains(err.Error(), "wrong base artifact?") {
		t.Fatalf("New on a foreign artifact: %v, want Replay's parent-mismatch error", err)
	}
	if got, err := os.ReadFile(artPath); err != nil || !bytes.Equal(got, fileBefore) {
		t.Fatalf("refused restart touched the watched file (read err %v)", err)
	}
	if walAfter := readDir(t, walDir); !reflect.DeepEqual(walAfter, walBefore) {
		t.Fatal("refused restart changed the WAL")
	}

	svc2, err := New(stale, cfg)
	if err != nil {
		t.Fatalf("restart one generation behind the log: %v", err)
	}
	defer svc2.Close()
	if st := svc2.Stats(); st.Generation != 1 || fingerprint(t, svc2.Artifact()) != fp1 {
		t.Fatalf("restarted service at generation %d fingerprint %.12s, want the committed generation 1 %.12s",
			st.Generation, fingerprint(t, svc2.Artifact()), fp1)
	}
	if st := svc2.Stats(); st.PendingTrain != 0 {
		t.Fatalf("PendingTrain = %d after the catch-up, want 0 (the marker closed the window)", st.PendingTrain)
	}
	watched, err := pathrank.LoadArtifactFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if watched.Lineage.Generation != 1 || fingerprint(t, watched) != fp1 || watched.Lineage.ChainRoot != gen1.Lineage.ChainRoot {
		t.Fatalf("watched file holds generation %d %.12s, want the committed generation 1 %.12s",
			watched.Lineage.Generation, fingerprint(t, watched), fp1)
	}

	ingestAll(t, svc2, sampleTrajectories(art, trips[4:8], 850))
	gen2, err := svc2.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if gen2.Lineage.Generation != 2 || gen2.Lineage.Parent != fp1 {
		t.Fatalf("next retrain is generation %d with parent %.12s, want 2 with parent %.12s",
			gen2.Lineage.Generation, gen2.Lineage.Parent, fp1)
	}
	published, err := pathrank.LoadArtifactFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(walDir, art, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.SkippedMarkers != 0 || res.Generations != 2 {
		t.Fatalf("replay: verified=%v, %d generations, %d skipped markers (%v); want true, 2, 0",
			res.Verified, res.Generations, res.SkippedMarkers, res.Mismatches)
	}
	if got, want := fingerprint(t, res.Artifact), fingerprint(t, published); got != want {
		t.Fatalf("replayed fingerprint %.12s, published %.12s", got, want)
	}
}

// readDir returns the name and content of every file in dir.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestProvenanceProofs covers the Merkle side: every trajectory of the
// training batch gets a verifiable inclusion proof against the lineage's
// data root, and unknown seqs fail closed.
func TestProvenanceProofs(t *testing.T) {
	art, trips := testWorld(t)
	svc, err := New(art, Config{QueueSize: 16, Workers: 2, Train: pathrank.TrainConfig{Epochs: 1, LR: 0.002, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	// Before any retrain: no batch, no proofs, no roots.
	info := svc.Provenance()
	if info.DataRoot != "" || info.ChainRoot != "" || info.WAL != nil {
		t.Fatalf("fresh service provenance not empty: %+v", info)
	}
	if _, err := svc.ProveTrajectory(1); !errors.Is(err, ErrNoProof) {
		t.Fatalf("proof before any batch: %v, want ErrNoProof", err)
	}

	ingestAll(t, svc, sampleTrajectories(art, trips[:4], 800))
	gen1, err := svc.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	info = svc.Provenance()
	if info.Generation != 1 || info.DataRoot != gen1.Lineage.DataRoot || info.ChainRoot != gen1.Lineage.ChainRoot {
		t.Fatalf("provenance does not mirror the lineage: %+v vs %+v", info, gen1.Lineage)
	}
	if info.BatchSize != gen1.Lineage.TrainedOn {
		t.Fatalf("BatchSize = %d, want %d", info.BatchSize, gen1.Lineage.TrainedOn)
	}

	svc.mu.Lock()
	seqs := append([]int64(nil), svc.batchSeqs...)
	svc.mu.Unlock()
	for _, seq := range seqs {
		p, err := svc.ProveTrajectory(seq)
		if err != nil {
			t.Fatalf("prove seq %d: %v", seq, err)
		}
		leaf, err := merkle.ParseHash(p.LeafHash)
		if err != nil {
			t.Fatal(err)
		}
		root, err := merkle.ParseHash(p.DataRoot)
		if err != nil {
			t.Fatal(err)
		}
		mp := merkle.Proof{Index: p.Index, Leaves: p.BatchSize}
		for _, h := range p.Path {
			ph, err := merkle.ParseHash(h)
			if err != nil {
				t.Fatal(err)
			}
			mp.Path = append(mp.Path, ph)
		}
		if !mp.Verify(leaf, root) {
			t.Fatalf("inclusion proof for seq %d does not verify", seq)
		}
		if p.DataRoot != gen1.Lineage.DataRoot || p.ChainRoot != gen1.Lineage.ChainRoot {
			t.Fatalf("proof roots do not match the lineage: %+v", p)
		}
	}
	if _, err := svc.ProveTrajectory(seqs[len(seqs)-1] + 1000); !errors.Is(err, ErrNoProof) {
		t.Fatalf("proof for unknown seq: %v, want ErrNoProof", err)
	}
}

// TestWALConfigValidation pins down the config errors.
func TestWALConfigValidation(t *testing.T) {
	art, _ := testWorld(t)
	if _, err := New(art, Config{WALDir: t.TempDir(), WALFsync: "sometimes"}); err == nil {
		t.Fatal("bad WALFsync accepted")
	}
	if _, err := New(art, Config{WALFsync: "sometimes"}); err == nil {
		t.Fatal("bad WALFsync accepted without a WAL")
	}
}
