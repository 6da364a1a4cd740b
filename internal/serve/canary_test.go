package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/chaos"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// TestCanaryAcceptsHealthyArtifact: with the gate enabled, an artifact
// with bit-identical weights (zero divergence, finite scores) must swap
// in normally.
func TestCanaryAcceptsHealthyArtifact(t *testing.T) {
	art := loadedTestArtifact(t)
	s, _ := newTestServer(t, Config{CanaryQueries: 6})
	if _, err := s.Swap(roundTripArtifact(t, art)); err != nil {
		t.Fatalf("canary rejected a healthy round-tripped artifact: %v", err)
	}
	if s.obs.swapRejected.Value() != 0 {
		t.Fatalf("swap_rejections = %v after an accepted swap", s.obs.swapRejected.Value())
	}
}

// TestCanaryRejectsPoisonedArtifact is the acceptance scenario of the
// gate: an artifact whose weights were NaN-poisoned on disk loads
// cleanly (valid bytes, valid shapes) and fails only in what it answers.
// The gate must refuse it, the old snapshot must keep serving, and the
// refusal must be visible in /healthz and the rejection counter.
func TestCanaryRejectsPoisonedArtifact(t *testing.T) {
	art := loadedTestArtifact(t)
	s, ts := newTestServer(t, Config{CanaryQueries: 6})
	before := s.Fingerprint()

	bad, err := chaos.PoisonArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Swap(bad); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("Swap(poisoned) = %v, want ErrSwapRejected", err)
	}
	if got := s.Fingerprint(); got != before {
		t.Fatalf("serving fingerprint changed across a rejected swap: %s -> %s", before, got)
	}
	if s.obs.swapRejected.Value() != 1 {
		t.Fatalf("swap_rejections = %v, want 1", s.obs.swapRejected.Value())
	}
	rej := s.LastSwapRejection()
	if rej == nil {
		t.Fatal("LastSwapRejection() = nil after a rejection")
	}
	if rej.Generation != bad.Lineage.Generation {
		t.Fatalf("rejection generation %d, want %d", rej.Generation, bad.Lineage.Generation)
	}

	// The old snapshot still answers.
	n := int64(art.Graph.NumVertices())
	resp, _ := postRank(t, ts.URL, api.RankQuery{Src: 0, Dst: n - 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank after rejected swap: status %d", resp.StatusCode)
	}

	// And /healthz carries the refusal.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health struct {
		SwapRejections    int64          `json:"swap_rejections"`
		LastSwapRejection *SwapRejection `json:"last_swap_rejection"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.SwapRejections != 1 || health.LastSwapRejection == nil {
		t.Fatalf("healthz rejection surface: count=%d last=%v", health.SwapRejections, health.LastSwapRejection)
	}
}

// TestCanaryDivergenceBound: a freshly re-initialized model reorders —
// and on small candidate sets fully inverts — the live rankings. A
// tightened bound must catch it; the same candidate under the maximum
// bound (1.0: any order, but scores still finite) must pass, proving
// the knob, not the weights, decides.
func TestCanaryDivergenceBound(t *testing.T) {
	art := loadedTestArtifact(t)
	strict, _ := newTestServer(t, Config{CanaryQueries: 8, CanaryMaxDivergence: 1e-9})
	if _, err := strict.Swap(variantArtifact(t, art, 999)); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("Swap(variant) under a near-zero bound = %v, want ErrSwapRejected", err)
	}

	lax, _ := newTestServer(t, Config{CanaryQueries: 8, CanaryMaxDivergence: 1})
	if _, err := lax.Swap(variantArtifact(t, art, 999)); err != nil {
		t.Fatalf("Swap(variant) under the maximum bound: %v", err)
	}
}

// TestReloadQuarantinesRejectedArtifact: a canary rejection coming
// through the file-reload path must write a copy of the refused bundle
// aside and record where, and must leave the file at the path to its
// publisher: a restart on that path still starts.
func TestReloadQuarantinesRejectedArtifact(t *testing.T) {
	art := loadedTestArtifact(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.prart")
	bad, err := chaos.PoisonArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	if err := pathrank.SaveArtifactFile(path, bad); err != nil {
		t.Fatal(err)
	}

	s, err := New(art, Config{ArtifactPath: path, CanaryQueries: 6})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.Reload(path); !errors.Is(err, ErrSwapRejected) {
		t.Fatalf("Reload(poisoned) = %v, want ErrSwapRejected", err)
	}
	rej := s.LastSwapRejection()
	if rej == nil || rej.Quarantined == "" {
		t.Fatalf("rejection does not record the quarantine path: %+v", rej)
	}
	if filepath.Dir(rej.Quarantined) != dir {
		t.Fatalf("quarantined outside the artifact directory: %s", rej.Quarantined)
	}
	var atPath *pathrank.Artifact
	for _, p := range []string{rej.Quarantined, path} {
		got, err := pathrank.LoadArtifactFile(p)
		if err != nil {
			t.Fatalf("load %s after the refusal: %v", p, err)
		}
		if fp, _ := got.Model.FingerprintHex(); fp != rej.Fingerprint {
			t.Fatalf("%s holds %.12s, want the refused %.12s", p, fp, rej.Fingerprint)
		}
		atPath = got
	}
	restarted, err := New(atPath, Config{ArtifactPath: path})
	if err != nil {
		t.Fatalf("server restart on %s: %v", path, err)
	}
	restarted.Close()
}

// TestWatchArtifactTornWrite: the watcher observing a torn/corrupt
// artifact file must keep serving the old snapshot, count the failure,
// and pick up the next good write — the failure mode a non-atomic
// writer (or a crash mid-copy) produces.
func TestWatchArtifactTornWrite(t *testing.T) {
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
	// A torn write: the valid bundle truncated mid-file.
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // ensure a distinct mtime/size
	if err := os.WriteFile(path, good[:len(good)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for s.obs.reloadErrors.Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("watcher never recorded the torn-file reload failure")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if got := s.Fingerprint(); got != before {
		t.Fatalf("torn artifact changed the serving snapshot: %s -> %s", before, got)
	}

	// The next good (atomic) write must swap in despite the pending
	// backoff state.
	next := variantArtifact(t, art, 31338)
	if err := pathrank.SaveArtifactFile(path, next); err != nil {
		t.Fatal(err)
	}
	deadline = time.After(5 * time.Second)
	for s.Fingerprint() == before {
		select {
		case <-deadline:
			t.Fatal("watcher did not recover onto the next good artifact within 5s")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestRankDivergence pins the Kendall-tau normalization: identical order
// scores 0, full inversion 1, disjoint or trivial rankings 0.
func TestRankDivergence(t *testing.T) {
	mk := func(vertices ...roadnet.VertexID) pathrank.Ranked {
		return pathrank.Ranked{Path: spath.Path{Vertices: vertices}}
	}
	a, b, c := mk(1, 2), mk(3, 4), mk(5, 6)
	cases := []struct {
		name       string
		live, cand []pathrank.Ranked
		want       float64
	}{
		{"same order", []pathrank.Ranked{a, b, c}, []pathrank.Ranked{a, b, c}, 0},
		{"full inversion", []pathrank.Ranked{a, b, c}, []pathrank.Ranked{c, b, a}, 1},
		{"one swap of three", []pathrank.Ranked{a, b, c}, []pathrank.Ranked{a, c, b}, 1.0 / 3},
		{"disjoint", []pathrank.Ranked{a}, []pathrank.Ranked{b}, 0},
		{"single shared", []pathrank.Ranked{a, b}, []pathrank.Ranked{a, c}, 0},
	}
	for _, tc := range cases {
		if got := rankDivergence(tc.live, tc.cand); got != tc.want {
			t.Errorf("%s: rankDivergence = %v, want %v", tc.name, got, tc.want)
		}
	}
}
