package stream

import (
	"pathrank/internal/obsv"
)

// Observation-outcome label values of pathrank_stream_observations_total.
// The label set is fixed so dashboards can enumerate it.
const (
	obsMatched     = "matched"
	obsMatchFailed = "match_failed"
	obsDropped     = "dropped"
	obsWALError    = "wal_error"
	obsParked      = "parked"
	obsLost        = "lost"
	obsRejected    = "rejected"
)

// streamMetrics is the pipeline's Prometheus-format instrumentation, one
// instance per Service on a registry of its own; GET /metrics exports it.
type streamMetrics struct {
	reg *obsv.Registry

	// observations counts ingested trajectories by outcome: matched into
	// the window, match_failed (HMM decode failure or too few hops),
	// dropped (queue full), wal_error (append failed), parked (held in the
	// degraded buffer awaiting re-sync; counted matched once drained),
	// lost (dropped on parking-buffer overflow — degraded mode's loss
	// bound), or rejected (a /v1/ingest body refused with 400 or 413 —
	// malformed, empty, or over the record cap — never queued).
	observations *obsv.CounterVec
	// workerPanics counts contained worker panics by worker ("match",
	// "retrain"): each one recovered and logged, the worker kept running.
	workerPanics *obsv.CounterVec
	// retrains counts retrain attempts by result; retrainDuration is the
	// end-to-end latency of successful retrains (sync, fine-tune, persist,
	// marker).
	retrains        *obsv.CounterVec
	retrainDuration obsv.Histogram
	// walFsync is the latency distribution of WAL fsync batches; its
	// _count is the total number of fsyncs. Empty with the WAL disabled.
	walFsync obsv.Histogram
}

// newStreamMetrics registers the pipeline's metric families on reg and
// wires the scrape-time gauges to s. Called from New before the workers
// start, so every field s reads is settled by scrape time.
func newStreamMetrics(reg *obsv.Registry, s *Service) *streamMetrics {
	m := &streamMetrics{reg: reg}
	m.observations = reg.Counter("pathrank_stream_observations_total",
		"Ingested trajectories by outcome: matched, match_failed, dropped, wal_error, parked, lost, or rejected.",
		"result")
	m.workerPanics = reg.Counter("pathrank_worker_panics_total",
		"Contained worker panics by worker (match, retrain); each worker recovered and kept running.",
		"worker")
	m.retrains = reg.Counter("pathrank_retrains_total",
		"Retrain attempts by result: ok or error.", "result")
	m.retrainDuration = reg.Histogram("pathrank_retrain_duration_seconds",
		"End-to-end latency of successful retrains in seconds.",
		[]float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120}).With()
	m.walFsync = reg.Histogram("pathrank_wal_fsync_duration_seconds",
		"WAL fsync batch latency in seconds.", nil).With()

	reg.GaugeFunc("pathrank_stream_queue_depth",
		"Trajectories waiting in the ingest queue.",
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("pathrank_stream_window_size",
		"Matched observations in the training window.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.window))
		})
	reg.GaugeFunc("pathrank_stream_pending_observations",
		"New observations accumulated since the last retrain.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.pending)
		})
	reg.GaugeFunc("pathrank_pipeline_degraded",
		"1 while the pipeline is in degraded mode (WAL failing, observations parked), else 0.",
		func() float64 {
			if s.degraded.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("pathrank_stream_parked_observations",
		"Matched observations parked in the degraded buffer awaiting WAL re-sync.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.parked))
		})
	reg.GaugeFunc("pathrank_wal_segments",
		"Segment files in the trajectory WAL (0 when disabled).",
		func() float64 {
			if s.log == nil {
				return 0
			}
			return float64(s.log.Stats().Segments)
		})
	reg.GaugeFunc("pathrank_wal_unsynced_records",
		"WAL records appended but not yet fsynced (0 when disabled).",
		func() float64 {
			if s.log == nil {
				return 0
			}
			st := s.log.Stats()
			return float64(st.LastIndex - st.SyncedIndex)
		})
	return m
}
