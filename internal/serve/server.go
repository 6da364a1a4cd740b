// Package serve exposes a trained PathRank artifact as an online ranking
// service over HTTP.
//
// The server answers concurrent ranking queries with the exact rankings an
// in-process Ranker.Rank would produce: candidate generation runs on
// pooled spath workspaces, a W-TinyLFU result cache short-circuits
// repeated queries (a hit writes stored response bytes), a singleflight
// group collapses duplicate in-flight queries so a thundering herd costs
// one computation, and candidates are scored by the model's fused batch
// kernels.
//
// POST /v2/rank is the query surface: a single query or a batch,
// per-request overrides of the candidate regime (k, strategy, diversity
// threshold, weight metric), per-item errors in batches whose
// items rank concurrently, each on its own, explain stats, and a server-side
// deadline (timeout_ms) that cancels an in-flight Yen enumeration
// mid-search. Failures carry typed codes (internal/api) mapped onto
// statuses: 400 invalid, 404 unroutable, 408 canceled, 504 deadline, 503
// backlog with Retry-After.
//
// The artifact is not fixed for the server's lifetime: the serving state
// lives in an atomically swappable snapshot (see snapshot.go). POST
// /v1/reload re-reads the artifact bundle from disk and hot-swaps it under
// live traffic — in-flight requests finish against the snapshot they
// started on, and the result cache survives a swap iff the model
// fingerprint, road network and candidate config are unchanged. A
// background watcher (WatchArtifact) performs the same swap automatically
// when the artifact file changes. That file is the only way a new model
// generation reaches a server: the trainer (pathrank-train's live mode,
// internal/stream) publishes by atomic rename, and every swap, whether
// from the watcher or /v1/reload, passes the canary gate (Config.
// CanaryQueries) before it serves.
//
// GET /healthz reports liveness, artifact shape, and lineage. GET /metrics
// exports the server's instrumentation (latency histograms, cache and shed
// counters, typed error counts, swap timings — see internal/obsv and
// docs/OPERATIONS.md) in the Prometheus text format.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/obsv"
	"pathrank/internal/pathrank"
)

// Config parameterizes a Server.
type Config struct {
	// CacheSize bounds the result cache in entries; 0 uses the default
	// (4096) and negative disables caching. The cache admits by W-TinyLFU
	// (see cache.go); its entry count is its only setting.
	CacheSize int
	// MaxK caps the per-request candidate-set override (default 32).
	MaxK int
	// MaxBatch caps the queries per /v2/rank batch request (default 64).
	MaxBatch int
	// MaxInFlight caps concurrently executing rank requests; requests over
	// the cap are shed immediately with 503 backlog + Retry-After instead
	// of queuing unboundedly. 0 (the default) disables shedding.
	MaxInFlight int
	// MaxTimeout caps a request's timeout_ms deadline (default 30s);
	// longer requests are clamped, not rejected.
	MaxTimeout time.Duration
	// Engine must be "" or "ch"; New rejects anything else. It selects
	// nothing: candidate generation runs on the ranker's weight tables.
	// Kept only because benchmark/ sets it to "ch"; ROADMAP item 4
	// removes it.
	Engine string
	// ArtifactPath is the bundle /v1/reload re-reads when the request names
	// no path, and the file WatchArtifact monitors.
	ArtifactPath string
	// WatchInterval > 0 makes WatchArtifact poll ArtifactPath for changes
	// and hot-swap automatically.
	WatchInterval time.Duration
	// CanaryQueries enables the canary gate that guards every hot swap:
	// before a candidate snapshot is published, this many pinned golden
	// origin-destination queries are scored on it and checked for finite
	// scores, non-empty rankings, and bounded rank divergence against the
	// live snapshot. A violation refuses the swap (the live snapshot keeps
	// serving), quarantines file-loaded artifacts, and surfaces through
	// /healthz and pathrank_swap_rejected_total. 0 (the default) disables
	// the gate.
	CanaryQueries int
	// CanaryMaxDivergence bounds the normalized Kendall-tau distance
	// between the candidate's and the live snapshot's rankings of the
	// golden queries, in [0,1]; 0 uses the default (0.9 — only wholesale
	// reversals fail). Only enforced when the road network is unchanged.
	CanaryMaxDivergence float64
	// CanaryTimeout bounds the whole canary gate (default 5s); a gate that
	// cannot finish in time refuses the swap.
	CanaryTimeout time.Duration
	// Logf, when non-nil, receives operational log lines (swaps, watcher
	// errors).
	Logf func(format string, args ...any)
}

// Server answers ranking queries against a hot-swappable artifact snapshot.
// Create it with New; all methods are safe for concurrent use.
type Server struct {
	cfg   Config
	start time.Time

	// snap is the current serving snapshot. A request loads it once and
	// works against that snapshot to the end, so a hot swap installed
	// mid-request cannot mix two models' state.
	snap atomic.Pointer[snapshot]
	// reloadMu serializes Swap/Reload so concurrent /v1/reload requests
	// cannot interleave snapshot construction and installation.
	reloadMu sync.Mutex

	obs *serveMetrics
	// inFlight counts rank requests currently executing; the MaxInFlight
	// shedder and the in-flight gauge read it.
	inFlight atomic.Int64

	// lastRejection is the most recent canary-gate refusal (nil before the
	// first), surfaced in /healthz.
	lastRejection atomic.Pointer[SwapRejection]
}

// New builds a Server around a loaded artifact.
func New(art *pathrank.Artifact, cfg Config) (*Server, error) {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.Engine != "" && cfg.Engine != "ch" {
		return nil, fmt.Errorf("serve: engine %q is not selectable", cfg.Engine)
	}
	api.DefaultRankLimits(&cfg.MaxK, &cfg.MaxBatch, &cfg.MaxTimeout)
	s := &Server{cfg: cfg, start: time.Now()}
	s.obs = newServeMetrics(obsv.NewRegistry(), s)
	snap, err := newSnapshot(art, cfg, nil)
	if err != nil {
		return nil, err
	}
	s.snap.Store(snap)
	return s, nil
}

// Snapshot is a consistent view of one serving state, for sidecar handlers
// mounted next to the server's own (the shard-serving layer's boundary and
// corridor endpoints): a hot swap installed after PinSnapshot does not
// change what the view returns.
type Snapshot struct {
	snap *snapshot
}

// PinSnapshot returns a view of the current snapshot.
func (s *Server) PinSnapshot() Snapshot {
	return Snapshot{snap: s.snap.Load()}
}

// Artifact returns the snapshot's artifact (graph, model, shard metadata).
func (sn Snapshot) Artifact() *pathrank.Artifact {
	return sn.snap.art
}

// Weights returns the snapshot ranker's edge-weight table of metric w,
// the one its candidate generation reads (Ranker.Weights).
func (sn Snapshot) Weights(w pathrank.WeightKind) []float64 {
	return sn.snap.ranker.Weights(w)
}

// Fingerprint returns the snapshot model's hex fingerprint.
func (sn Snapshot) Fingerprint() string {
	return sn.snap.fpHex
}

// SwapInfo describes the outcome of a hot swap.
type SwapInfo struct {
	// Fingerprint is the hex SHA-256 of the now-serving model.
	Fingerprint string `json:"fingerprint"`
	// Previous is the fingerprint of the replaced model.
	Previous string `json:"previous_fingerprint"`
	// Changed reports whether the model actually differs.
	Changed bool `json:"changed"`
	// CachePreserved reports whether the result cache survived the swap.
	// It does iff the model fingerprint, the graph digest and the candidate
	// config are all identical.
	CachePreserved bool `json:"cache_preserved"`
	// Generation is the lineage generation of the new artifact.
	Generation int `json:"generation"`
}

// Swap atomically replaces the serving artifact. In-flight requests finish
// against the snapshot they started on. The result cache is preserved iff
// the new model's fingerprint, road network and candidate configuration
// match the old ones (cached rankings are then bit-identical by
// construction); otherwise it is fully invalidated.
//
// With cfg.CanaryQueries > 0 the candidate snapshot must pass the canary
// gate (see canary.go) before it is installed; a refusal wraps
// ErrSwapRejected and leaves the current snapshot serving.
func (s *Server) Swap(art *pathrank.Artifact) (SwapInfo, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	swapStart := time.Now()
	old := s.snap.Load()
	next, err := newSnapshot(art, s.cfg, old)
	if err != nil {
		return SwapInfo{}, err
	}
	if s.cfg.CanaryQueries > 0 {
		if cerr := s.canaryCheck(next, old); cerr != nil {
			// The candidate never serves; the components it shares with the
			// live snapshot (the cache) are unaffected.
			return SwapInfo{}, s.rejectSwap(next, art.Lineage.Generation, cerr)
		}
	}
	s.snap.Store(next)
	s.obs.swaps.Inc()
	s.obs.swapDuration.Observe(time.Since(swapStart).Seconds())
	info := SwapInfo{
		Fingerprint:    next.fpHex,
		Previous:       old.fpHex,
		Changed:        next.fp != old.fp,
		CachePreserved: next.cache != nil && next.cache == old.cache,
		Generation:     art.Lineage.Generation,
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf("swapped artifact: gen %d fingerprint %.12s (changed=%v cache_preserved=%v)",
			info.Generation, info.Fingerprint, info.Changed, info.CachePreserved)
	}
	return info, nil
}

// Reload reads the artifact bundle at path (or cfg.ArtifactPath when path
// is empty) and hot-swaps it in. An artifact the canary gate refuses is
// quarantined: a copy is written aside for inspection. The file at path
// is left alone — it belongs to its publisher (the trainer restarts from
// it, and other servers read it) — and the watcher does not re-offer it
// until a new file replaces it.
func (s *Server) Reload(path string) (SwapInfo, error) {
	if path == "" {
		path = s.cfg.ArtifactPath
	}
	if path == "" {
		return SwapInfo{}, fmt.Errorf("serve: no artifact path configured")
	}
	art, err := pathrank.LoadArtifactFile(path)
	if err != nil {
		s.obs.reloadErrors.Inc()
		return SwapInfo{}, err
	}
	info, err := s.Swap(art)
	if err != nil {
		s.obs.reloadErrors.Inc()
		if errors.Is(err, ErrSwapRejected) {
			s.quarantineArtifact(path, art)
		}
	}
	return info, err
}

// quarantineArtifact writes the canary-rejected artifact next to path,
// named after the refused fingerprint, and records the location in the
// rejection /healthz reports. It writes the artifact that was refused
// rather than copying path, so a publish landing at path meanwhile cannot
// be quarantined in its place. A write failure is logged and otherwise
// ignored: quarantine is a hygiene measure, the swap was already refused.
func (s *Server) quarantineArtifact(path string, art *pathrank.Artifact) {
	rej := s.lastRejection.Load()
	if rej == nil {
		return
	}
	qpath := fmt.Sprintf("%s.quarantined-%.12s", path, rej.Fingerprint)
	if err := pathrank.SaveArtifactFile(qpath, art); err != nil {
		if s.cfg.Logf != nil {
			s.cfg.Logf("quarantine %s: %v", path, err)
		}
		return
	}
	updated := *rej
	updated.Quarantined = qpath
	s.lastRejection.Store(&updated)
	if s.cfg.Logf != nil {
		s.cfg.Logf("quarantined rejected artifact: copy of %s at %s", path, qpath)
	}
}

// Fingerprint returns the hex fingerprint of the currently served model.
func (s *Server) Fingerprint() string {
	return s.snap.Load().fpHex
}

// Close pairs with New. The server owns no background goroutine or handle,
// so there is nothing to stop.
func (s *Server) Close() {}

// Handler returns the server's HTTP API, one route table of its endpoints
// and extra's: a shard worker mounts its sub-query endpoints this way.
func (s *Server) Handler(extra ...api.Route) http.Handler {
	return api.RouteTable(append([]api.Route{
		{Method: http.MethodPost, Path: "/v2/rank", Handler: s.handleRankV2},
		{Method: http.MethodPost, Path: "/v1/reload", Handler: s.handleReload},
		{Method: http.MethodGet, Path: "/healthz", Handler: s.handleHealthz},
		{Method: http.MethodGet, Path: "/metrics", Handler: s.handleMetrics},
	}, extra...)...)
}

// Metrics returns the server's Prometheus registry (the one behind GET
// /metrics).
func (s *Server) Metrics() *obsv.Registry {
	return s.obs.reg
}

// WatchArtifact polls cfg.ArtifactPath every cfg.WatchInterval and
// hot-swaps the bundle in when the file changes, until ctx is canceled.
// "Changed" is a different mtime or size, or a different file at the path:
// every publisher writes through pathrank.WriteFileAtomic, which renames a
// new inode into place, so a generation written within the filesystem's
// mtime granularity at an equal size is still seen. A change observed here
// is therefore normally a complete bundle; a torn manual copy is rejected
// by the checksum and retried on an exponential backoff, so a copy that
// completes without touching the file's identity again is still picked
// up. Canary-rejected bundles are not retried: the verdict is
// deterministic for those bytes, so the watcher waits for the next file.
func (s *Server) WatchArtifact(ctx context.Context) {
	if s.cfg.ArtifactPath == "" || s.cfg.WatchInterval <= 0 {
		return
	}
	last, _ := os.Stat(s.cfg.ArtifactPath) // nil: no file yet, the first one is a change
	tick := time.NewTicker(s.cfg.WatchInterval)
	defer tick.Stop()
	backoff := s.cfg.WatchInterval
	var retryAt time.Time // zero: no failed reload pending retry
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		st, err := os.Stat(s.cfg.ArtifactPath)
		if err != nil {
			// Missing file: not yet published, or removed by hand; wait
			// for the next write to create it.
			continue
		}
		changed := last == nil || !os.SameFile(last, st) ||
			!st.ModTime().Equal(last.ModTime()) || st.Size() != last.Size()
		if !changed && (retryAt.IsZero() || time.Now().Before(retryAt)) {
			continue
		}
		last = st
		if _, err := s.Reload(s.cfg.ArtifactPath); err != nil {
			if s.cfg.Logf != nil {
				s.cfg.Logf("watcher: reload %s: %v", s.cfg.ArtifactPath, err)
			}
			if errors.Is(err, ErrSwapRejected) {
				// The canary verdict is deterministic for these bytes —
				// retrying would re-reject. `last` holds this file, so
				// only a replacement is offered next.
				retryAt, backoff = time.Time{}, s.cfg.WatchInterval
				continue
			}
			retryAt = time.Now().Add(backoff)
			if backoff < 16*s.cfg.WatchInterval {
				backoff *= 2
			}
			continue
		}
		retryAt, backoff = time.Time{}, s.cfg.WatchInterval
	}
}

// ReloadRequest is the (optional) body of POST /v1/reload.
type ReloadRequest struct {
	// Artifact overrides the configured artifact path for this reload.
	Artifact string `json:"artifact,omitempty"`
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	s.obs.requests.With("/v1/reload").Inc()
	var req ReloadRequest
	// An empty body means "reload the configured artifact".
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRankBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		api.WriteJSON(w, http.StatusBadRequest, api.MessageError{Error: "bad request body: " + err.Error()})
		return
	}
	info, err := s.Reload(req.Artifact)
	if err != nil {
		// A failure to read an artifact the client itself named is a
		// client error (bad path, corrupt upload), not a server fault;
		// only failures of the server's own configured bundle are 500s.
		status := http.StatusInternalServerError
		if req.Artifact != "" || s.cfg.ArtifactPath == "" {
			status = http.StatusBadRequest
		}
		api.WriteJSON(w, status, api.MessageError{Error: err.Error()})
		return
	}
	api.WriteJSON(w, http.StatusOK, info)
}

type healthResponse struct {
	Status       string   `json:"status"`
	APIVersions  []string `json:"api_versions"`
	UptimeS      float64  `json:"uptime_s"`
	Vertices     int      `json:"vertices"`
	Edges        int      `json:"edges"`
	ModelParams  int      `json:"model_params"`
	CacheSize    int      `json:"cache_entries"`
	Fingerprint  string   `json:"fingerprint"`
	Generation   int      `json:"generation"`
	ParentModel  string   `json:"parent_fingerprint,omitempty"`
	Swaps        int64    `json:"swaps"`
	SnapshotAgeS float64  `json:"snapshot_age_s"`
	// DataRoot and ChainRoot surface the serving artifact's provenance
	// commitments.
	DataRoot  string `json:"data_root,omitempty"`
	ChainRoot string `json:"chain_root,omitempty"`
	// SwapRejections counts canary-gate refusals; LastSwapRejection
	// details the most recent one (what was kept out of service and why).
	SwapRejections    int64          `json:"swap_rejections,omitempty"`
	LastSwapRejection *SwapRejection `json:"last_swap_rejection,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.obs.requests.With("/healthz").Inc()
	snap := s.snap.Load()
	resp := healthResponse{
		Status:       "ok",
		APIVersions:  []string{"v1", "v2"},
		UptimeS:      time.Since(s.start).Seconds(),
		Vertices:     snap.art.Graph.NumVertices(),
		Edges:        snap.art.Graph.NumEdges(),
		ModelParams:  snap.art.Model.NumParams(),
		CacheSize:    snap.cache.len(),
		Fingerprint:  snap.fpHex,
		Generation:   snap.art.Lineage.Generation,
		ParentModel:  snap.art.Lineage.Parent,
		Swaps:        int64(s.obs.swaps.Value()),
		SnapshotAgeS: time.Since(snap.loaded).Seconds(),
		DataRoot:     snap.art.Lineage.DataRoot,
		ChainRoot:    snap.art.Lineage.ChainRoot,

		SwapRejections:    int64(s.obs.swapRejected.Value()),
		LastSwapRejection: s.lastRejection.Load(),
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics exports the server's metric registry in Prometheus text
// exposition format. See docs/OPERATIONS.md for the metric reference.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.obs.requests.With("/metrics").Inc()
	s.obs.reg.ServeHTTP(w, r)
}
