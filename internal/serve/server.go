// Package serve exposes a trained PathRank artifact as an online ranking
// service over HTTP.
//
// The server answers concurrent ranking queries with the exact rankings an
// in-process Ranker.Query would produce: candidate generation runs on
// pooled spath workspaces, an LRU cache short-circuits repeated queries (a
// hit writes stored response bytes), a singleflight group collapses
// duplicate in-flight queries so a thundering herd costs one computation,
// and candidates are scored by the model's fused batch kernels.
//
// POST /v2/rank is the query surface: a single query or a batch,
// per-request overrides of the candidate regime (k, strategy, diversity
// threshold, weight metric, engine), per-item errors in batches with one
// NN sweep across the whole batch, explain stats, and a server-side
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
// when the artifact file changes, which closes the loop with the streaming
// retrainer in internal/stream. POST /v1/ingest forwards raw GPS
// trajectories to a pluggable Ingestor.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/geo"
	"pathrank/internal/obsv"
	"pathrank/internal/pathrank"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// maxRankBody bounds a /v2/rank request body; maxIngestBody bounds a
// /v1/ingest body (GPS streams are bulkier than rank queries).
const (
	maxRankBody   = 1 << 20
	maxIngestBody = 8 << 20
)

// Ingestor accepts raw GPS trajectories for asynchronous processing. The
// streaming pipeline in internal/stream implements it; any error is
// reported to the client as 503 (the canonical cause is a full ingest
// queue, which the client should retry later).
type Ingestor interface {
	IngestGPS(records []traj.GPSRecord) error
}

// HealthSource reports the live pipeline's health for GET /healthz. The
// streaming pipeline in internal/stream implements it; the interface
// keeps this package from importing the pipeline.
type HealthSource interface {
	Health() api.PipelineHealth
}

// ProvenanceSource reports data-provenance state for GET /v1/provenance:
// the Merkle commitments of the serving generation, WAL health, and
// per-trajectory inclusion proofs. The streaming pipeline in
// internal/stream implements it; like Ingestor, the interface keeps this
// package from importing the pipeline. An error from ProveTrajectory
// means no proof exists for that sequence number in the current batch
// (reported to the client as 404).
type ProvenanceSource interface {
	Provenance() api.ProvenanceInfo
	ProveTrajectory(seq int64) (api.InclusionProof, error)
}

// Config parameterizes a Server.
type Config struct {
	// CacheSize bounds the LRU result cache in entries; 0 uses the default
	// (4096) and negative disables caching.
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
	// Engine selects the shortest-path backend for candidate generation:
	// "ch" (default), "alt", or "dijkstra". The structure persisted in the
	// artifact is used when it matches; otherwise it is built once at
	// snapshot creation and reused across hot swaps of the same road
	// network.
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
	// Pipeline, when non-nil, contributes the live pipeline's health state
	// to GET /healthz: a degraded pipeline (failing WAL) flips the
	// top-level health status to "degraded". The streaming pipeline in
	// internal/stream implements it.
	Pipeline HealthSource
	// Ingest, when non-nil, enables POST /v1/ingest.
	Ingest Ingestor
	// Provenance, when non-nil, backs GET /v1/provenance with live
	// pipeline state (WAL health, inclusion proofs). Without it the
	// endpoint still serves the lineage commitments of the serving
	// artifact, but cannot issue proofs.
	Provenance ProvenanceSource
	// MaxIngestRecords caps the GPS records accepted per trajectory
	// (default 20000, ~5.5 h at 1 Hz). Together with the bounded ingest
	// queue this bounds the bytes a client can park behind 202 responses;
	// without it, maximal bodies times the queue depth is gigabytes.
	MaxIngestRecords int
	// Metrics, when non-nil, is the registry the server registers its
	// Prometheus-format metric families on — pathrank-serve passes one
	// shared registry here and to the stream pipeline so GET /metrics
	// exports both. nil gives the server a private registry.
	Metrics *obsv.Registry
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

// engineKind resolves the configured engine name; New has validated it.
func (c Config) engineKind() spath.EngineKind {
	if c.Engine == "" {
		return spath.EngineCH
	}
	kind, err := spath.ParseEngineKind(c.Engine)
	if err != nil {
		return spath.EngineCH
	}
	return kind
}

// New builds a Server around a loaded artifact.
func New(art *pathrank.Artifact, cfg Config) (*Server, error) {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 4096
	}
	if cfg.Engine != "" {
		if _, err := spath.ParseEngineKind(cfg.Engine); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 32
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 30 * time.Second
	}
	if cfg.MaxIngestRecords <= 0 {
		cfg.MaxIngestRecords = 20000
	}
	s := &Server{cfg: cfg, start: time.Now()}
	snap, err := newSnapshot(art, cfg, nil)
	if err != nil {
		return nil, err
	}
	s.snap.Store(snap)
	// The Prometheus registry: per-server unless the caller shares one.
	// Registered after the snapshot is installed, because the scrape-time
	// gauges read it.
	reg := cfg.Metrics
	if reg == nil {
		reg = obsv.NewRegistry()
	}
	s.obs = newServeMetrics(reg, s)
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
			// live snapshot (cache, engine) are unaffected.
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
// quarantined: the file is renamed aside so the watcher does not re-offer
// the same bad bundle, and the next good write lands under the original
// name.
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
			s.quarantineArtifact(path)
		}
	}
	return info, err
}

// quarantineArtifact moves a canary-rejected artifact file aside, naming
// the quarantine after the refused fingerprint, and records the location
// in the rejection /healthz reports. A rename failure (e.g. the retrainer
// already replaced the file) is logged and otherwise ignored: quarantine
// is a hygiene measure, the swap was already refused.
func (s *Server) quarantineArtifact(path string) {
	rej := s.lastRejection.Load()
	if rej == nil {
		return
	}
	qpath := fmt.Sprintf("%s.quarantined-%.12s", path, rej.Fingerprint)
	if err := os.Rename(path, qpath); err != nil {
		if s.cfg.Logf != nil {
			s.cfg.Logf("quarantine %s: %v", path, err)
		}
		return
	}
	updated := *rej
	updated.Quarantined = qpath
	s.lastRejection.Store(&updated)
	if s.cfg.Logf != nil {
		s.cfg.Logf("quarantined rejected artifact: %s -> %s", path, qpath)
	}
}

// Fingerprint returns the hex fingerprint of the currently served model.
func (s *Server) Fingerprint() string {
	return s.snap.Load().fpHex
}

// Close pairs with New. The server owns no background goroutine or handle,
// so there is nothing to stop.
func (s *Server) Close() {}

// Handler returns the server's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/rank", s.handleRankV2)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	mux.HandleFunc("POST /v1/ingest", s.handleIngest)
	mux.HandleFunc("GET /v1/provenance", s.handleProvenance)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Metrics returns the server's Prometheus registry (the one behind GET
// /metrics): cfg.Metrics when one was supplied, a private registry
// otherwise.
func (s *Server) Metrics() *obsv.Registry {
	return s.obs.reg
}

// WatchArtifact polls cfg.ArtifactPath every cfg.WatchInterval and
// hot-swaps the bundle in when its mtime or size changes, until ctx is
// canceled. The streaming retrainer writes artifacts atomically
// (rename-into-place), so a change observed here is normally a complete
// bundle; a torn manual copy is rejected by the checksum and — unlike the
// pre-fault-injection watcher, which waited for the next mtime change —
// retried on an exponential backoff, so a copy that completes without
// touching the mtime again is still picked up. Canary-rejected bundles
// are not retried (Reload quarantined the file; the stat fails until the
// next good write).
func (s *Server) WatchArtifact(ctx context.Context) {
	if s.cfg.ArtifactPath == "" || s.cfg.WatchInterval <= 0 {
		return
	}
	var lastMod time.Time
	var lastSize int64 = -1
	if st, err := os.Stat(s.cfg.ArtifactPath); err == nil {
		lastMod, lastSize = st.ModTime(), st.Size()
	}
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
			// Missing file: quarantined or mid-replace; wait for the next
			// write to recreate it.
			continue
		}
		changed := !st.ModTime().Equal(lastMod) || st.Size() != lastSize
		if !changed && (retryAt.IsZero() || time.Now().Before(retryAt)) {
			continue
		}
		lastMod, lastSize = st.ModTime(), st.Size()
		if _, err := s.Reload(s.cfg.ArtifactPath); err != nil {
			if s.cfg.Logf != nil {
				s.cfg.Logf("watcher: reload %s: %v", s.cfg.ArtifactPath, err)
			}
			if errors.Is(err, ErrSwapRejected) {
				// The canary verdict is deterministic for these bytes and
				// the file is quarantined — retrying would re-reject.
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

// errorResponse is the error body of the /v1 endpoints (reload, ingest,
// provenance).
type errorResponse struct {
	Error string `json:"error"`
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
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRankBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		api.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
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
		api.WriteJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	api.WriteJSON(w, http.StatusOK, info)
}

// GPSSample is one raw positioning record of an ingested trajectory.
type GPSSample struct {
	Lon float64 `json:"lon"`
	Lat float64 `json:"lat"`
	// T is seconds since the start of the trip.
	T float64 `json:"t"`
}

// IngestRequest is the body of POST /v1/ingest: one raw GPS trajectory.
type IngestRequest struct {
	Records []GPSSample `json:"records"`
}

// IngestResponse acknowledges an accepted trajectory.
type IngestResponse struct {
	Queued int `json:"queued"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.obs.requests.With("/v1/ingest").Inc()
	reject := func() { s.obs.ingest.With("rejected").Inc() }
	if s.cfg.Ingest == nil {
		reject()
		api.WriteJSON(w, http.StatusServiceUnavailable,
			errorResponse{Error: "ingestion is not enabled on this server"})
		return
	}
	var req IngestRequest
	if apiErr := api.DecodeJSON(w, r, maxIngestBody, &req); apiErr != nil {
		reject()
		api.WriteJSON(w, apiErr.Status, errorResponse{Error: apiErr.Message})
		return
	}
	if len(req.Records) == 0 {
		reject()
		api.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "trajectory has no records"})
		return
	}
	if len(req.Records) > s.cfg.MaxIngestRecords {
		reject()
		api.WriteJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("trajectory has %d records, limit is %d — split long traces",
				len(req.Records), s.cfg.MaxIngestRecords)})
		return
	}
	recs := make([]traj.GPSRecord, len(req.Records))
	for i, sm := range req.Records {
		recs[i] = traj.GPSRecord{Point: geo.Point{Lon: sm.Lon, Lat: sm.Lat}, TimeOffset: sm.T}
	}
	if err := s.cfg.Ingest.IngestGPS(recs); err != nil {
		reject()
		w.Header().Set("Retry-After", "1")
		api.WriteJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
		return
	}
	s.obs.ingest.With("accepted").Inc()
	api.WriteJSON(w, http.StatusAccepted, IngestResponse{Queued: len(req.Records)})
}

// handleProvenance answers GET /v1/provenance. Without a seq parameter it
// reports the provenance commitments of the serving generation (plus WAL
// health when a live pipeline backs the server); with ?seq=N it issues a
// Merkle inclusion proof for the trajectory with that ingest sequence
// number, or 404 when the trajectory is not in the current training batch.
func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	s.obs.requests.With("/v1/provenance").Inc()
	if seqStr := r.URL.Query().Get("seq"); seqStr != "" {
		if s.cfg.Provenance == nil {
			api.WriteJSON(w, http.StatusNotFound,
				errorResponse{Error: "no live pipeline on this server: inclusion proofs unavailable"})
			return
		}
		seq, err := strconv.ParseInt(seqStr, 10, 64)
		if err != nil || seq <= 0 {
			api.WriteJSON(w, http.StatusBadRequest, errorResponse{Error: "seq must be a positive integer"})
			return
		}
		proof, err := s.cfg.Provenance.ProveTrajectory(seq)
		if err != nil {
			api.WriteJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
			return
		}
		api.WriteJSON(w, http.StatusOK, proof)
		return
	}
	if s.cfg.Provenance != nil {
		api.WriteJSON(w, http.StatusOK, s.cfg.Provenance.Provenance())
		return
	}
	// No pipeline: the artifact's lineage still carries the commitments.
	snap := s.snap.Load()
	api.WriteJSON(w, http.StatusOK, api.ProvenanceInfo{
		Generation: snap.art.Lineage.Generation,
		DataRoot:   snap.art.Lineage.DataRoot,
		ChainRoot:  snap.art.Lineage.ChainRoot,
		BatchSize:  snap.art.Lineage.TrainedOn,
	})
}

type healthResponse struct {
	Status        string   `json:"status"`
	APIVersions   []string `json:"api_versions"`
	UptimeS       float64  `json:"uptime_s"`
	Vertices      int      `json:"vertices"`
	Edges         int      `json:"edges"`
	ModelParams   int      `json:"model_params"`
	CacheSize     int      `json:"cache_entries"`
	Engine        string   `json:"engine"`
	PrepEmbedded  bool     `json:"prep_embedded"`
	Fingerprint   string   `json:"fingerprint"`
	Generation    int      `json:"generation"`
	ParentModel   string   `json:"parent_fingerprint,omitempty"`
	Swaps         int64    `json:"swaps"`
	SnapshotAgeS  float64  `json:"snapshot_age_s"`
	IngestEnabled bool     `json:"ingest_enabled"`
	// DataRoot and ChainRoot surface the serving artifact's provenance
	// commitments; WAL reports the trajectory log when a live pipeline
	// backs the server.
	DataRoot  string         `json:"data_root,omitempty"`
	ChainRoot string         `json:"chain_root,omitempty"`
	WAL       *api.WALStatus `json:"wal,omitempty"`
	// SwapRejections counts canary-gate refusals; LastSwapRejection
	// details the most recent one (what was kept out of service and why).
	SwapRejections    int64          `json:"swap_rejections,omitempty"`
	LastSwapRejection *SwapRejection `json:"last_swap_rejection,omitempty"`
	// Pipeline is the live pipeline's health; a degraded pipeline flips
	// the top-level Status to "degraded" (the server itself still serves).
	Pipeline *api.PipelineHealth `json:"pipeline,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.obs.requests.With("/healthz").Inc()
	snap := s.snap.Load()
	resp := healthResponse{
		Status:        "ok",
		APIVersions:   []string{"v1", "v2"},
		UptimeS:       time.Since(s.start).Seconds(),
		Vertices:      snap.art.Graph.NumVertices(),
		Edges:         snap.art.Graph.NumEdges(),
		ModelParams:   snap.art.Model.NumParams(),
		CacheSize:     snap.cache.len(),
		Engine:        snap.engine.Kind().String(),
		PrepEmbedded:  snap.art.Prep != nil,
		Fingerprint:   snap.fpHex,
		Generation:    snap.art.Lineage.Generation,
		ParentModel:   snap.art.Lineage.Parent,
		Swaps:         int64(s.obs.swaps.Value()),
		SnapshotAgeS:  time.Since(snap.loaded).Seconds(),
		IngestEnabled: s.cfg.Ingest != nil,
		DataRoot:      snap.art.Lineage.DataRoot,
		ChainRoot:     snap.art.Lineage.ChainRoot,
	}
	if s.cfg.Provenance != nil {
		resp.WAL = s.cfg.Provenance.Provenance().WAL
	}
	resp.SwapRejections = int64(s.obs.swapRejected.Value())
	resp.LastSwapRejection = s.lastRejection.Load()
	if s.cfg.Pipeline != nil {
		ph := s.cfg.Pipeline.Health()
		resp.Pipeline = &ph
		if ph.State == api.PipelineDegraded {
			// Ranking still works (the snapshot is intact), but ingest
			// durability is impaired — surfaced at the top level so plain
			// liveness probes notice without parsing the pipeline block.
			resp.Status = api.PipelineDegraded
		}
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics exports the server's metric registry in Prometheus text
// exposition format. See docs/OPERATIONS.md for the metric reference.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.obs.requests.With("/metrics").Inc()
	s.obs.reg.ServeHTTP(w, r)
}
