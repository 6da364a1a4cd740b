// Package stream turns the offline train→artifact→serve chain into a live
// loop: it is the trainer, the one writer of model generations. Raw GPS
// trajectories enter through a bounded ingest queue (backpressure instead
// of unbounded memory growth), map-matching workers recover network paths
// from them with the HMM matcher in internal/traj, and an incremental
// trainer periodically fine-tunes the current model on the accumulated
// observation window — warm-starting from the newest weights with
// deterministic seeding, so the same ingest sequence always produces the
// same chain of artifacts. Each retrain emits a new lineage-stamped
// artifact, persisted atomically to Config.ArtifactPath. That file is how
// a generation reaches the servers: they watch it (or are told to reload
// it) and swap it in through their canary gate. A server refusing a
// generation therefore cannot touch the trainer's chain.
//
// Durability and provenance. With Config.WALDir set, every accepted
// observation is appended to a segmented write-ahead log (internal/wal)
// before it is folded into the training window, and each committed
// generation writes a retrain marker recording exactly which observations
// it trained on and with what configuration. A restarted service rebuilds
// its window from the log, and Replay reconstructs any logged generation
// bit-for-bit from the log plus the base artifact. When the log itself
// fails (disk full, I/O error), the pipeline does not silently drop
// observations: it flips into a visible degraded state — matched paths
// are parked in a bounded in-memory buffer, excluded from the training
// window (the window must stay a subset of the log), and a background
// loop re-appends them with exponential backoff until the disk recovers
// and a final fsync succeeds, at which point the service reports ready
// again. Worker panics (matcher or retrainer) are contained: recovered,
// counted, and the worker keeps draining. Independently of the
// WAL, every retrain seals its training window into a Merkle batch
// (internal/merkle): the batch root and a chained root over all
// generations are stamped into the artifact's lineage, and ProveTrajectory
// issues inclusion proofs against the current generation's root.
//
// Service.Handler is the trainer's HTTP surface (POST /v1/ingest, GET
// /v1/provenance, GET /healthz, GET /metrics), speaking the wire types of
// the leaf package internal/api; pathrank-train's live mode serves it.
// The package does not import internal/serve.
//
// The pipeline instruments itself on an internal/obsv registry of its own,
// which GET /metrics exports: observation outcomes, retrain counts
// and latency, queue/window/pending gauges, and WAL fsync health. See
// docs/OPERATIONS.md for the metric reference.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/fault"
	"pathrank/internal/merkle"
	"pathrank/internal/obsv"
	"pathrank/internal/pathrank"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
	"pathrank/internal/wal"
)

// ErrBacklog reports a full ingest queue; the caller should retry later.
// POST /v1/ingest maps it to 503 with Retry-After.
var ErrBacklog = errors.New("stream: ingest queue full")

// Config parameterizes the live pipeline.
type Config struct {
	// QueueSize bounds the ingest queue in trajectories (default 256).
	// When full, IngestGPS fails fast with ErrBacklog.
	QueueSize int
	// MaxIngestRecords caps the GPS records POST /v1/ingest accepts per
	// trajectory (default 20000, ~5.5 h at 1 Hz). Together with the bounded
	// queue this bounds the bytes a client can park behind 202 responses;
	// without it, maximal bodies times the queue depth is gigabytes.
	MaxIngestRecords int
	// Workers is the number of map-matching workers (default 2). Matching
	// is CPU-bound Viterbi decoding, so a couple of workers keep up with
	// substantial ingest rates without starving the rest of the process.
	Workers int
	// Window bounds the retained observation window in matched paths
	// (default 1024). Older observations are evicted first.
	Window int
	// MinObservations is how many new observations must accumulate before
	// a periodic retrain fires (default 16). RetrainNow ignores it.
	MinObservations int
	// Interval is the periodic retrain cadence; 0 disables the timer
	// (retraining then only happens through RetrainNow).
	Interval time.Duration
	// MinHops discards matched paths with fewer edges (default 2): a
	// trajectory that collapses to a point or a single hop carries no
	// ranking signal.
	MinHops int
	// Match parameterizes the HMM map matcher; zero-valued fields use
	// traj.DefaultMatchConfig.
	Match traj.MatchConfig
	// Train parameterizes each fine-tune step; zero-valued fields fall
	// back to pathrank.DefaultFineTuneConfig. Train.Seed is the base seed:
	// generation g trains with Seed+g, which keeps every step deterministic
	// while decorrelating the shuffles of successive generations.
	Train pathrank.TrainConfig
	// ArtifactPath, when set, receives every new generation as an
	// atomically renamed artifact bundle: the file servers watch.
	ArtifactPath string
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)

	// WALDir, when set, enables the trajectory write-ahead log in that
	// directory: accepted observations are logged before they enter the
	// window, the window is rebuilt from the log on startup, and each
	// retrain writes a marker that makes the generation replayable.
	WALDir string
	// WALFsync selects the log's fsync policy: "batch" (default; fsync at
	// retrain boundaries and rotation), "always" (fsync every record), or
	// "interval" (background fsync every WALSyncInterval).
	WALFsync string
	// WALSyncInterval is the "interval" policy cadence (default 200ms).
	WALSyncInterval time.Duration
	// WALSegmentBytes is the segment rotation threshold (default 4 MiB).
	WALSegmentBytes int64
	// WALRetain, when positive, caps the sealed segments kept on disk.
	// Retention trades replay depth for space: pruned observations cannot
	// be replayed, so leave it 0 when full-history replay matters.
	WALRetain int
	// DegradedBuffer bounds the in-memory parking buffer of degraded mode
	// in observations (default: Window). While WAL appends fail, matched
	// paths accumulate here instead of entering the window; on overflow
	// the oldest parked observation is dropped and counted as lost — the
	// documented loss bound of degraded mode.
	DegradedBuffer int
}

// observation is one map-matched trajectory. seq is the ingest sequence
// number: the window is sorted by it before training, so the training set
// order — and with it the seeded shuffle — is independent of worker
// scheduling.
type observation struct {
	seq  int64
	path spath.Path
}

// Stats is a point-in-time snapshot of pipeline counters.
type Stats struct {
	QueueDepth    int
	Received      int64
	Dropped       int64 // rejected with ErrBacklog
	Matched       int64
	MatchFailed   int64
	WindowSize    int
	PendingTrain  int // new observations since the last retrain
	Generation    int
	Retrains      int64
	RetrainErrors int64
	// WALErrors counts WAL append failures (each parks its observation
	// for degraded-mode re-sync); Recovered is how many observations the
	// startup window rebuild replayed from the WAL. Both stay 0 with the
	// WAL disabled.
	WALErrors int64
	Recovered int
	// Degraded reports whether the pipeline is currently in degraded mode
	// (WAL appends failing, observations parked). Parked is the current
	// parking-buffer depth; Lost counts observations dropped on parking
	// overflow; WorkerPanics counts contained worker panics.
	Degraded     bool
	Parked       int
	Lost         int64
	WorkerPanics int64
}

// Service is the live pipeline: ingest queue, map-matching workers, and
// the incremental retrainer. Create it with New; IngestGPS, RetrainNow,
// Stats, and Artifact are safe for concurrent use.
type Service struct {
	cfg     Config
	matcher *traj.Matcher
	queue   chan ingestItem

	// retrainMu serializes retrains so two triggers cannot both fine-tune
	// from the same parent and race to persist.
	retrainMu sync.Mutex

	// log is the trajectory WAL; nil when Config.WALDir is empty.
	log *wal.Log

	// obs is the pipeline's Prometheus instrumentation; always non-nil
	// after New.
	obs *streamMetrics

	// degraded is the pipeline's health flag, readable without s.mu from
	// metrics and the hot ingest path. The detail behind it (since,
	// reason, parked buffer) lives under s.mu; recoverKick wakes the
	// recovery loop when an append failure first parks an observation.
	degraded    atomic.Bool
	recoverKick chan struct{}

	mu            sync.Mutex
	art           *pathrank.Artifact
	window        []observation // ring buffer once it reaches cfg.Window
	winHead       int           // oldest element when the ring is full
	seq           int64
	pending       int // new observations since last retrain
	received      int64
	dropped       int64
	matched       int64
	matchFailed   int64
	retrains      int64
	retrainErrors int64
	walErrors     int64
	recovered     int // observations replayed from the WAL at startup

	// Degraded-mode state, guarded by mu. parked holds matched
	// observations whose WAL append failed, oldest first; only the
	// recovery loop pops it, so parked[0] is stable across an unlocked
	// re-append attempt. They are not in the window — the window must
	// stay a subset of the log.
	degradedSince  time.Time
	degradedReason string
	parked         []observation
	parkedLost     int64
	workerPanics   int64

	// Provenance of the current generation: chain is the running chained
	// root (zero before any committed batch), batch the sealed Merkle
	// batch of the latest retrain, batchSeqs the ingest seq of each leaf
	// in training order. batch and batchSeqs are nil until the first
	// retrain (or after a restart: proofs cover live batches only).
	chain     merkle.Hash
	batch     *merkle.Batch
	batchSeqs []int64
}

// windowAddLocked appends o to the window, evicting the oldest
// observation in O(1) once the window is at capacity: the slice becomes a
// ring and the head slot — necessarily the oldest append — is overwritten
// in place. Callers hold s.mu. Retraining sorts its window copy by seq, so
// the ring's rotation never reaches the training set order.
func (s *Service) windowAddLocked(o observation) {
	if len(s.window) < s.cfg.Window {
		s.window = append(s.window, o)
		return
	}
	s.window[s.winHead] = o
	s.winHead++
	if s.winHead == len(s.window) {
		s.winHead = 0
	}
}

// windowSnapshotLocked copies the window out of the ring. Callers hold
// s.mu.
func (s *Service) windowSnapshotLocked() []observation {
	out := make([]observation, 0, len(s.window))
	out = append(out, s.window[s.winHead:]...)
	out = append(out, s.window[:s.winHead]...)
	return out
}

type ingestItem struct {
	seq     int64
	records []traj.GPSRecord
}

// New builds a Service that evolves art. The artifact's graph anchors the
// map matcher; its model is never mutated — each retrain fine-tunes a
// clone.
func New(art *pathrank.Artifact, cfg Config) (*Service, error) {
	if art == nil || art.Graph == nil || art.Model == nil {
		return nil, fmt.Errorf("stream: artifact needs a graph and a model")
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.MaxIngestRecords <= 0 {
		cfg.MaxIngestRecords = 20000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.Window <= 0 {
		cfg.Window = 1024
	}
	if cfg.MinObservations <= 0 {
		cfg.MinObservations = 16
	}
	if cfg.DegradedBuffer <= 0 {
		cfg.DegradedBuffer = cfg.Window
	}
	if cfg.MinHops <= 0 {
		cfg.MinHops = 2
	}
	// Per-field matcher defaults, so a caller overriding only SigmaM (say,
	// for noisier receivers) keeps the defaults for the rest. NewMatcher
	// also defaults Candidates/SigmaM/BetaM, but not StrideSec — and an
	// unsubsampled 1 Hz stream makes Viterbi decoding needlessly slow.
	def := traj.DefaultMatchConfig()
	if cfg.Match.Candidates <= 0 {
		cfg.Match.Candidates = def.Candidates
	}
	if cfg.Match.SigmaM <= 0 {
		cfg.Match.SigmaM = def.SigmaM
	}
	if cfg.Match.BetaM <= 0 {
		cfg.Match.BetaM = def.BetaM
	}
	if cfg.Match.StrideSec <= 0 {
		cfg.Match.StrideSec = def.StrideSec
	}
	s := &Service{
		cfg:         cfg,
		matcher:     traj.NewMatcher(art.Graph, cfg.Match),
		queue:       make(chan ingestItem, cfg.QueueSize),
		art:         art,
		recoverKick: make(chan struct{}, 1),
	}
	s.obs = newStreamMetrics(obsv.NewRegistry(), s)
	// The provenance chain resumes from the artifact's lineage: the
	// persisted artifact is the authoritative record of what has been
	// committed. A blank ChainRoot (pre-provenance artifact, or genesis)
	// starts the chain from the zero hash.
	if art.Lineage.ChainRoot != "" {
		h, err := merkle.ParseHash(art.Lineage.ChainRoot)
		if err != nil {
			return nil, fmt.Errorf("stream: artifact lineage ChainRoot: %w", err)
		}
		s.chain = h
	}
	if cfg.WALDir != "" {
		if cfg.Train.Validation != nil {
			// Validation-driven early stopping depends on a query set a WAL
			// record cannot capture, so such a run would not be replayable.
			return nil, fmt.Errorf("stream: Train.Validation is incompatible with the WAL (replay could not reproduce early stopping)")
		}
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openWAL opens (or creates) the trajectory log and rebuilds the
// in-memory window from it: every intact observation record is replayed
// through the same eviction policy as live ingest, the ingest sequence
// resumes after the highest logged seq, and the pending count restarts
// from the records logged after the last retrain marker.
func (s *Service) openWAL() error {
	pol := wal.SyncBatch
	if s.cfg.WALFsync != "" {
		var err error
		if pol, err = wal.ParseSyncPolicy(s.cfg.WALFsync); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}
	log, err := wal.Open(s.cfg.WALDir, wal.Options{
		SegmentBytes: s.cfg.WALSegmentBytes,
		Sync:         pol,
		SyncEvery:    s.cfg.WALSyncInterval,
		Retain:       s.cfg.WALRetain,
		OnSync: func(d time.Duration) {
			s.obs.walFsync.Observe(d.Seconds())
		},
	})
	if err != nil {
		return fmt.Errorf("stream: open WAL: %w", err)
	}
	var lastMarker *retrainMarker
	replayErr := log.Replay(func(idx uint64, payload []byte) error {
		rec, err := decodeWALRecord(idx, payload, s.art.Graph)
		switch {
		case err != nil:
			return err
		case rec.isMarker:
			lastMarker = &rec.marker
			s.pending = 0
		default:
			s.windowAddLocked(rec.obs)
			if rec.obs.seq > s.seq {
				s.seq = rec.obs.seq
			}
			s.recovered++
			s.pending++
		}
		return nil
	})
	if replayErr != nil {
		log.Close()
		return replayErr
	}
	s.log = log
	if rec := log.Recovery(); (rec.TornBytes > 0 || s.recovered > 0) && s.cfg.Logf != nil {
		s.cfg.Logf("wal: recovered %d observations into the window (%d records total, torn tail %d bytes)",
			len(s.window), rec.Records, rec.TornBytes)
	}
	// The artifact normally matches the last marker. A marker ahead of the
	// artifact means the caller restarted from an older artifact, or the
	// process died between a marker and its rename: training continues
	// from what was handed in, and the divergence is surfaced rather than
	// guessed around — Replay can still reconstruct the logged chain.
	if lastMarker != nil && lastMarker.Generation > s.art.Lineage.Generation && s.cfg.Logf != nil {
		s.cfg.Logf("wal: log has retrain markers through generation %d but the artifact is generation %d; continuing from the artifact",
			lastMarker.Generation, s.art.Lineage.Generation)
	}
	return nil
}

// Close releases the service's write-ahead log (flushing any unsynced
// tail). It does not stop Run — cancel its context first. Safe to call
// when the WAL is disabled, and at most once.
func (s *Service) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// IngestGPS enqueues one raw trajectory for asynchronous map matching. It
// never blocks: when the queue is full it fails fast with ErrBacklog so
// the caller (an HTTP handler under load) can shed instead of stall.
func (s *Service) IngestGPS(records []traj.GPSRecord) error {
	if len(records) == 0 {
		return fmt.Errorf("stream: empty trajectory")
	}
	s.mu.Lock()
	s.seq++
	item := ingestItem{seq: s.seq, records: records}
	s.mu.Unlock()
	select {
	case s.queue <- item:
		s.mu.Lock()
		s.received++
		s.mu.Unlock()
		return nil
	default:
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		s.obs.observations.With(obsDropped).Inc()
		return ErrBacklog
	}
}

// Artifact returns the newest generation.
func (s *Service) Artifact() *pathrank.Artifact {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.art
}

// Stats returns a snapshot of the pipeline counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		QueueDepth:    len(s.queue),
		Received:      s.received,
		Dropped:       s.dropped,
		Matched:       s.matched,
		MatchFailed:   s.matchFailed,
		WindowSize:    len(s.window),
		PendingTrain:  s.pending,
		Generation:    s.art.Lineage.Generation,
		Retrains:      s.retrains,
		RetrainErrors: s.retrainErrors,
		WALErrors:     s.walErrors,
		Recovered:     s.recovered,
		Degraded:      s.degraded.Load(),
		Parked:        len(s.parked),
		Lost:          s.parkedLost,
		WorkerPanics:  s.workerPanics,
	}
}

// Run starts the map-matching workers, the WAL recovery loop (when the
// WAL is enabled), and, when cfg.Interval > 0, the periodic retrain
// loop. It blocks until ctx is canceled and all workers have stopped.
func (s *Service) Run(ctx context.Context) error {
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.matchLoop(ctx)
		}()
	}
	if s.log != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.recoverLoop(ctx)
		}()
	}
	if s.cfg.Interval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.retrainLoop(ctx)
		}()
	}
	wg.Wait()
	return nil
}

// matchLoop drains the ingest queue, recovering network paths. Each
// trajectory is matched inside a panic guard: a panic anywhere in the
// match path (the HMM decoder, an engine query, an injected fault) is
// recovered and counted, the trajectory is abandoned, and the worker
// keeps draining the queue — one poisoned input must not stop ingest.
func (s *Service) matchLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case item := <-s.queue:
			s.matchGuarded(ctx, item)
		}
	}
}

// matchGuarded runs matchOne under the worker panic guard.
func (s *Service) matchGuarded(ctx context.Context, item ingestItem) {
	defer func() {
		if r := recover(); r != nil {
			s.notePanic("match", fmt.Sprintf("trajectory %d", item.seq), r)
		}
	}()
	s.matchOne(ctx, item)
}

// notePanic records a contained worker panic: counted (Stats, /healthz,
// pathrank_worker_panics_total) and logged with its stack, never
// propagated.
func (s *Service) notePanic(worker, what string, r any) {
	s.mu.Lock()
	s.workerPanics++
	s.mu.Unlock()
	s.obs.workerPanics.With(worker).Inc()
	if s.cfg.Logf != nil {
		s.cfg.Logf("%s worker panic CONTAINED (%s): %v\n%s", worker, what, r, debug.Stack())
	}
}

// matchOne map-matches one trajectory and folds it into the window. The
// worker's shutdown context is threaded into the matcher, so canceling the
// service aborts a Viterbi decode (and its engine queries) in flight
// instead of draining it; the abandoned trajectory is not counted as a
// match failure.
func (s *Service) matchOne(ctx context.Context, item ingestItem) {
	path, err := s.matcher.MatchCtx(ctx, item.records)
	if err == nil {
		// Injected matcher faults land here, after the real decode: an
		// error counts like any bad trajectory, a panic is contained by
		// matchGuarded, a delay models a slow decode.
		err = fault.Check(fault.SiteMatch)
	}
	if err != nil && ctx.Err() != nil {
		return // shutdown, not a bad trajectory
	}
	if err != nil || path.Len() < s.cfg.MinHops {
		s.mu.Lock()
		s.matchFailed++
		s.mu.Unlock()
		s.obs.observations.With(obsMatchFailed).Inc()
		if err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("match trajectory %d: %v", item.seq, err)
		}
		return
	}
	o := observation{seq: item.seq, path: path}
	if s.log != nil {
		// Write-ahead: the observation must be in the log before it can
		// influence training, or a crash could yield a generation trained
		// on data the log never saw. While degraded, don't hammer the
		// failing disk with every observation — park directly and let the
		// recovery loop's backoff probe the log.
		if s.degraded.Load() {
			s.park(o, nil)
			return
		}
		if _, err := s.log.Append(encodeObservation(o)); err != nil {
			s.mu.Lock()
			s.walErrors++
			s.mu.Unlock()
			s.obs.observations.With(obsWALError).Inc()
			s.park(o, err)
			return
		}
	}
	s.mu.Lock()
	s.matched++
	s.pending++
	s.windowAddLocked(o)
	s.mu.Unlock()
	s.obs.observations.With(obsMatched).Inc()
}

// park holds a matched observation whose WAL append failed (or that
// arrived while the log was already failing) in the bounded degraded
// buffer, flips the pipeline into its degraded state, and wakes the
// recovery loop. On overflow the oldest parked observation is dropped
// and counted as lost — the documented loss bound of degraded mode.
func (s *Service) park(o observation, cause error) {
	s.mu.Lock()
	if len(s.parked) >= s.cfg.DegradedBuffer {
		s.parked = s.parked[1:]
		s.parkedLost++
		s.obs.observations.With(obsLost).Inc()
	}
	s.parked = append(s.parked, o)
	if cause != nil {
		s.markDegradedLocked(fmt.Sprintf("wal append: %v", cause))
	} else if !s.degraded.Load() {
		s.markDegradedLocked("wal append failing")
	}
	s.mu.Unlock()
	s.obs.observations.With(obsParked).Inc()
	if s.cfg.Logf != nil && cause != nil {
		s.cfg.Logf("wal: append trajectory %d: %v (observation parked, pipeline degraded)", o.seq, cause)
	}
	s.kickRecovery()
}

// markDegradedLocked flips (or refreshes the reason of) the degraded
// state. Callers hold s.mu.
func (s *Service) markDegradedLocked(reason string) {
	if !s.degraded.Load() {
		s.degraded.Store(true)
		s.degradedSince = time.Now()
	}
	s.degradedReason = reason
}

// noteWALFault marks the pipeline degraded after a WAL failure outside
// the append path (a retrain-boundary fsync) and wakes the recovery
// loop; recovery clears it once a probe fsync succeeds.
func (s *Service) noteWALFault(err error) {
	s.mu.Lock()
	s.markDegradedLocked(err.Error())
	s.mu.Unlock()
	s.kickRecovery()
}

// kickRecovery wakes the recovery loop without blocking; a buffered
// token already pending means it will wake anyway.
func (s *Service) kickRecovery() {
	select {
	case s.recoverKick <- struct{}{}:
	default:
	}
}

// recoverLoop is the degraded-mode healer: woken by the first parked
// observation (or any WAL fault), it re-appends the parked backlog
// oldest-first with exponential backoff between failed probes, and
// clears the degraded state only after the backlog is drained AND a
// final fsync confirms the log is durably caught up.
func (s *Service) recoverLoop(ctx context.Context) {
	const (
		backoffMin = 100 * time.Millisecond
		backoffMax = 5 * time.Second
	)
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.recoverKick:
		}
		backoff := backoffMin
		for s.degraded.Load() {
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if err := s.resyncStep(); err != nil {
				if backoff *= 2; backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			backoff = backoffMin
		}
	}
}

// resyncStep makes one unit of recovery progress: re-append the oldest
// parked observation, or — once the backlog is empty — fsync the log
// and clear the degraded state. A non-nil error means the disk is still
// failing and the caller should back off.
func (s *Service) resyncStep() error {
	s.mu.Lock()
	if len(s.parked) == 0 {
		s.mu.Unlock()
		// Drained. The log must prove it is durably healthy before the
		// service reports ready again: a successful fsync, not merely an
		// absence of parked work.
		if err := s.log.Sync(); err != nil {
			return err
		}
		s.mu.Lock()
		if len(s.parked) == 0 && s.degraded.Load() {
			s.degraded.Store(false)
			since := s.degradedSince
			s.degradedReason = ""
			s.mu.Unlock()
			if s.cfg.Logf != nil {
				s.cfg.Logf("wal: recovered, pipeline ready again (degraded for %s)",
					time.Since(since).Round(time.Millisecond))
			}
			return nil
		}
		// Raced with a fresh park between drain and fsync; keep going.
		s.mu.Unlock()
		return nil
	}
	o := s.parked[0]
	s.mu.Unlock()
	// Append outside the lock: a hung disk must not wedge Stats/Health.
	// Only this loop pops parked, so parked[0] is still o afterwards.
	if _, err := s.log.Append(encodeObservation(o)); err != nil {
		return err
	}
	s.mu.Lock()
	s.parked = s.parked[1:]
	s.matched++
	s.pending++
	s.windowAddLocked(o)
	s.mu.Unlock()
	s.obs.observations.With(obsMatched).Inc()
	return nil
}

// Health reports the pipeline's self-assessed health for /healthz: ready,
// or degraded with the fault, its duration, and the parked backlog.
func (s *Service) Health() api.PipelineHealth {
	h := api.PipelineHealth{State: api.PipelineReady}
	s.mu.Lock()
	defer s.mu.Unlock()
	h.WorkerPanics = s.workerPanics
	h.Lost = s.parkedLost
	if s.degraded.Load() {
		h.State = api.PipelineDegraded
		h.Reason = s.degradedReason
		h.DegradedForS = time.Since(s.degradedSince).Seconds()
		h.Parked = len(s.parked)
	}
	return h
}

// retrainLoop fires a retrain whenever the cadence elapses with at least
// MinObservations new observations accumulated.
func (s *Service) retrainLoop(ctx context.Context) {
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		s.mu.Lock()
		ready := s.pending >= s.cfg.MinObservations
		s.mu.Unlock()
		if !ready {
			continue
		}
		if _, err := s.RetrainNow(); err != nil && s.cfg.Logf != nil {
			s.cfg.Logf("retrain: %v", err)
		}
	}
}

// RetrainNow fine-tunes the current model on the accumulated observation
// window and installs the result as the next generation: lineage bumped
// and stamped with the window's Merkle roots, persisted atomically to
// cfg.ArtifactPath (when set), and recorded in the WAL (when enabled).
// The previous generation's model is never touched — training runs on a
// clone — and the step is deterministic: the window is sorted into ingest
// order and the fine-tune is seeded with Train.Seed+generation. On an
// error the previous generation stays current and nil is returned, except
// a failed rename after the commit point, which returns the adopted
// generation with the error.
//
// Commit order under the WAL: the log is synced before training (no
// generation may cite observations that could vanish in a crash), the
// artifact is staged (written and fsynced beside cfg.ArtifactPath), the
// retrain marker is appended and synced, and only then is the staged file
// renamed into the watched path. The synced marker is the commit point: a
// failure before it removes the staged file and leaves both the watched
// file and the service on the previous generation, and from it on the
// service adopts the generation even when the rename fails (that error is
// returned), so every marker is the parent of the next one. A crash
// between marker and rename leaves the watched file one generation behind
// the log; a restart from it reports the gap, and Replay rebuilds the
// logged generation.
func (s *Service) RetrainNow() (*pathrank.Artifact, error) {
	s.retrainMu.Lock()
	defer s.retrainMu.Unlock()
	retrainStart := time.Now()

	s.mu.Lock()
	base := s.art
	obs := s.windowSnapshotLocked()
	prev := s.chain
	s.mu.Unlock()

	fail := func(err error) (*pathrank.Artifact, error) {
		s.mu.Lock()
		s.retrainErrors++
		s.mu.Unlock()
		s.obs.retrains.With("error").Inc()
		return nil, err
	}

	if s.log != nil {
		if err := s.log.Sync(); err != nil {
			s.noteWALFault(fmt.Errorf("wal sync before retrain: %v", err))
			return fail(fmt.Errorf("stream: sync WAL before retrain: %w", err))
		}
	}

	// The fine-tune runs under the worker panic guard: a panic in the
	// trainer (bad data, an injected fault) fails this retrain and keeps
	// the previous generation, instead of killing the retrain loop.
	out, err := func() (out *retrainOutcome, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.notePanic("retrain", fmt.Sprintf("generation %d window", base.Lineage.Generation+1), r)
				out, err = nil, fmt.Errorf("stream: retrain panicked: %v", r)
			}
		}()
		return s.retrain(base, obs, prev)
	}()
	if err != nil {
		return fail(err)
	}
	art := out.art

	var staged string
	if s.cfg.ArtifactPath != "" {
		staged, err = pathrank.StageFile(s.cfg.ArtifactPath, func(w io.Writer) error { return pathrank.SaveArtifact(w, art) })
		if err != nil {
			return fail(err)
		}
	}
	if s.log != nil {
		if err := s.logMarker(out.marker); err != nil {
			if staged != "" {
				os.Remove(staged)
			}
			return fail(err)
		}
	}
	var publishErr error
	if staged != "" {
		publishErr = pathrank.CommitFile(staged, s.cfg.ArtifactPath)
	}

	s.mu.Lock()
	s.art = art
	s.pending = 0
	s.retrains++
	s.chain = out.batch.Chain
	s.batch = out.batch
	s.batchSeqs = out.seqs
	s.mu.Unlock()
	s.obs.retrains.With("ok").Inc()
	s.obs.retrainDuration.Observe(time.Since(retrainStart).Seconds())
	if s.cfg.Logf != nil {
		s.cfg.Logf("retrained: generation %d on %d observations (data root %s)",
			art.Lineage.Generation, len(obs), art.Lineage.DataRoot)
	}
	if publishErr != nil {
		return art, fmt.Errorf("stream: generation %d committed but not published: %w", art.Lineage.Generation, publishErr)
	}
	return art, nil
}

// logMarker appends the retrain marker m to the WAL and syncs it.
func (s *Service) logMarker(m retrainMarker) error {
	payload, err := encodeRetrainMarker(m)
	if err != nil {
		return err
	}
	if _, err := s.log.Append(payload); err != nil {
		s.noteWALFault(fmt.Errorf("wal retrain marker: %v", err))
		return fmt.Errorf("stream: log retrain marker: %w", err)
	}
	if err := s.log.Sync(); err != nil {
		s.noteWALFault(fmt.Errorf("wal sync retrain marker: %v", err))
		return fmt.Errorf("stream: sync retrain marker: %w", err)
	}
	return nil
}

// retrainOutcome bundles what one retrain produced: the artifact, the
// sealed Merkle batch over its training window, the window's ingest seqs
// in training order, and the WAL marker describing the step.
type retrainOutcome struct {
	art    *pathrank.Artifact
	batch  *merkle.Batch
	seqs   []int64
	marker retrainMarker
}

// retrain produces the next-generation artifact from base and the window,
// chaining its provenance onto prev, with the fine-tune seeded by
// Train.Seed+generation.
func (s *Service) retrain(base *pathrank.Artifact, obs []observation, prev merkle.Hash) (*retrainOutcome, error) {
	if err := fault.Check(fault.SiteRetrain); err != nil {
		return nil, fmt.Errorf("stream: retrain: %w", err)
	}
	tcfg := s.cfg.Train
	tcfg.Seed += int64(base.Lineage.Generation) + 1
	return retrainStep(base, obs, prev, tcfg)
}

// retrainStep is the one retrain body, run by the live loop and re-run by
// Replay: sort the window into ingest order, seal its Merkle batch onto
// prev, label it with base's candidate configuration, fine-tune a clone of
// base's model under tcfg, and stamp the child artifact and its WAL marker
// with both fingerprints and the batch roots. Sorting is what makes it
// deterministic: worker-completion order never reaches training, and the
// Merkle leaves are sealed in the same order, so a leaf index is also a
// training-set position. obs is sorted in place.
func retrainStep(base *pathrank.Artifact, obs []observation, prev merkle.Hash, tcfg pathrank.TrainConfig) (*retrainOutcome, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("stream: no observations to retrain on")
	}
	sort.Slice(obs, func(a, b int) bool { return obs[a].seq < obs[b].seq })
	trips := make([]traj.Trip, len(obs))
	seqs := make([]int64, len(obs))
	batcher := merkle.NewBatcher(prev)
	for i, o := range obs {
		trips[i] = traj.Trip{Path: o.path}
		seqs[i] = o.seq
		batcher.Add(encodeObservation(o))
	}
	batch := batcher.Seal()
	dcfg := base.Candidates
	if dcfg.K <= 0 {
		dcfg = dataset.DefaultConfig()
	}
	queries, err := dataset.Generate(base.Graph, trips, dcfg)
	if err != nil {
		return nil, fmt.Errorf("stream: label window: %w", err)
	}

	model, err := base.Model.Clone()
	if err != nil {
		return nil, fmt.Errorf("stream: clone model: %w", err)
	}
	if _, err := model.FineTune(queries, tcfg); err != nil {
		return nil, fmt.Errorf("stream: fine-tune: %w", err)
	}

	parent, err := base.Model.FingerprintHex()
	if err != nil {
		return nil, fmt.Errorf("stream: fingerprint parent: %w", err)
	}
	result, err := model.FingerprintHex()
	if err != nil {
		return nil, fmt.Errorf("stream: fingerprint result: %w", err)
	}
	lin := base.Lineage.Child(parent, len(obs), "stream")
	lin.DataRoot = batch.Root.Hex()
	lin.ChainRoot = batch.Chain.Hex()
	art := &pathrank.Artifact{
		Graph:      base.Graph,
		Embeddings: base.Embeddings,
		Model:      model,
		Candidates: base.Candidates,
		Lineage:    lin,
	}
	return &retrainOutcome{
		art:   art,
		batch: batch,
		seqs:  seqs,
		marker: retrainMarker{
			Generation: lin.Generation,
			Parent:     parent,
			Result:     result,
			DataRoot:   lin.DataRoot,
			ChainRoot:  lin.ChainRoot,
			WindowSeqs: seqs,
			Epochs:     tcfg.Epochs,
			LR:         tcfg.LR,
			ClipNorm:   tcfg.ClipNorm,
			LRDecay:    tcfg.LRDecay,
			Seed:       tcfg.Seed,
		},
	}, nil
}

// Provenance reports the provenance commitments of the current generation
// and, when the WAL is enabled, the state of the trajectory log.
func (s *Service) Provenance() api.ProvenanceInfo {
	s.mu.Lock()
	info := api.ProvenanceInfo{
		Generation: s.art.Lineage.Generation,
		DataRoot:   s.art.Lineage.DataRoot,
		ChainRoot:  s.art.Lineage.ChainRoot,
	}
	if s.batch != nil {
		info.BatchSize = len(s.batchSeqs)
	}
	walErrors := s.walErrors
	s.mu.Unlock()
	if s.log != nil {
		st := s.log.Stats()
		ws := &api.WALStatus{
			Segments:         st.Segments,
			LastIndex:        st.LastIndex,
			SyncedIndex:      st.SyncedIndex,
			FsyncPolicy:      s.walPolicy().String(),
			Fsyncs:           st.Syncs,
			RecoveredRecords: st.Recovered,
			TornBytes:        st.TornBytes,
			AppendErrors:     walErrors,
		}
		if st.Syncs > 0 {
			ws.FsyncMeanUs = float64(st.SyncNanos) / float64(st.Syncs) / 1e3
		}
		info.WAL = ws
	}
	return info
}

// walPolicy resolves the configured fsync policy (Config validation in
// openWAL guarantees it parses).
func (s *Service) walPolicy() wal.SyncPolicy {
	if s.cfg.WALFsync == "" {
		return wal.SyncBatch
	}
	p, err := wal.ParseSyncPolicy(s.cfg.WALFsync)
	if err != nil {
		return wal.SyncBatch
	}
	return p
}

// ErrNoProof reports that no inclusion proof is available for a sequence
// number: the trajectory is not in the current generation's training
// batch (not yet trained on, evicted before the batch sealed, or the
// batch predates this process — proofs cover live batches only).
var ErrNoProof = errors.New("stream: no inclusion proof for that trajectory in the current generation")

// ProveTrajectory issues a Merkle inclusion proof that the observation
// with ingest sequence seq is in the current generation's training batch.
func (s *Service) ProveTrajectory(seq int64) (api.InclusionProof, error) {
	s.mu.Lock()
	batch := s.batch
	seqs := s.batchSeqs
	gen := s.art.Lineage.Generation
	s.mu.Unlock()
	if batch == nil {
		return api.InclusionProof{}, ErrNoProof
	}
	// batchSeqs is sorted ascending (training order), so the leaf index is
	// a binary search away.
	i := sort.Search(len(seqs), func(i int) bool { return seqs[i] >= seq })
	if i >= len(seqs) || seqs[i] != seq {
		return api.InclusionProof{}, ErrNoProof
	}
	proof, err := batch.Prove(i)
	if err != nil {
		return api.InclusionProof{}, err
	}
	path := make([]string, len(proof.Path))
	for j, h := range proof.Path {
		path[j] = h.Hex()
	}
	return api.InclusionProof{
		Seq:        seq,
		Generation: gen,
		Index:      proof.Index,
		BatchSize:  proof.Leaves,
		LeafHash:   batch.Leaves[i].Hex(),
		Path:       path,
		DataRoot:   batch.Root.Hex(),
		ChainRoot:  batch.Chain.Hex(),
	}, nil
}
