package serve

import (
	"runtime"
	"time"

	"pathrank/internal/obsv"
)

// Cache-event label values of the serve metric families.
// Exported indirectly through docs/OPERATIONS.md; the label sets are fixed
// so dashboards can enumerate them.
const (
	cacheHit    = "hit"
	cacheMiss   = "miss"
	cacheShared = "singleflight_shared"
)

// serveMetrics is the server's Prometheus-format instrumentation, one
// instance per Server on a registry of its own.
type serveMetrics struct {
	reg *obsv.Registry

	// requests counts every HTTP request by endpoint, including the
	// non-rank endpoints, so a dashboard can see scrape and health traffic
	// next to query traffic.
	requests *obsv.CounterVec
	// latency is the end-to-end request duration of the rank endpoints,
	// labeled by endpoint and the serving snapshot's engine. Requests
	// rejected before a snapshot is pinned (shed, undecodable body) are
	// not observed here — they are visible in rankErrors/shed instead.
	latency *obsv.HistogramVec
	// rankErrors counts failed rank queries by typed api code (per item
	// for batches).
	rankErrors *obsv.CounterVec
	// cacheEvents counts result-cache hits, misses, and singleflight-shared
	// answers.
	cacheEvents *obsv.CounterVec
	// The rank path's children, resolved once so a request takes no family
	// lock and builds no label key: /v2/rank's request counter and the
	// three cache events. Each snapshot resolves its own latency child,
	// labeled with the engine it ranks on.
	rankRequests             obsv.Counter
	hits, misses, sharedHits obsv.Counter
	// shed counts requests rejected by the MaxInFlight load shedder.
	shed obsv.Counter
	// batchQueries is the distribution of queries per /v2/rank batch
	// request (single-query requests are not observed).
	batchQueries obsv.Histogram
	// swaps/swapDuration instrument artifact hot swaps (snapshot build +
	// install).
	swaps        obsv.Counter
	swapDuration obsv.Histogram
	// swapRejected counts candidate artifacts the canary gate refused to
	// publish (the live snapshot kept serving).
	swapRejected obsv.Counter
	// reloadErrors counts failed /v1/reload attempts.
	reloadErrors obsv.Counter
}

// newServeMetrics registers the server's metric families on reg and wires
// the scrape-time gauges to s.
func newServeMetrics(reg *obsv.Registry, s *Server) *serveMetrics {
	m := &serveMetrics{reg: reg}
	m.requests = reg.Counter("pathrank_http_requests_total",
		"HTTP requests received, by endpoint.", "endpoint")
	m.latency = reg.Histogram("pathrank_request_duration_seconds",
		"End-to-end rank request latency in seconds, by endpoint and serving engine.",
		nil, "endpoint", "engine")
	m.rankErrors = reg.Counter("pathrank_rank_errors_total",
		"Failed rank queries by typed error code (per item for batches).", "code")
	m.cacheEvents = reg.Counter("pathrank_cache_events_total",
		"Result-cache lookups by outcome: hit, miss, or singleflight_shared.", "event")
	m.shed = reg.Counter("pathrank_load_shed_total",
		"Rank requests rejected immediately because MaxInFlight was exceeded.").With()
	m.batchQueries = reg.Histogram("pathrank_batch_queries",
		"Queries per /v2/rank batch request.", obsv.DefSizeBuckets).With()
	m.swaps = reg.Counter("pathrank_swaps_total",
		"Artifact hot swaps installed.").With()
	m.swapDuration = reg.Histogram("pathrank_swap_duration_seconds",
		"Hot-swap latency in seconds: snapshot build through install.", nil).With()
	m.swapRejected = reg.Counter("pathrank_swap_rejected_total",
		"Artifact swaps refused by the canary gate; the previous snapshot kept serving.").With()
	m.reloadErrors = reg.Counter("pathrank_reload_errors_total",
		"Failed artifact reload attempts.").With()
	m.rankRequests = m.requests.With("/v2/rank")
	m.hits = m.cacheEvents.With(cacheHit)
	m.misses = m.cacheEvents.With(cacheMiss)
	m.sharedHits = m.cacheEvents.With(cacheShared)

	reg.GaugeFunc("pathrank_in_flight_requests",
		"Rank requests currently executing.",
		func() float64 { return float64(s.inFlight.Load()) })
	reg.GaugeFunc("pathrank_cache_entries",
		"Entries in the serving snapshot's result cache.",
		func() float64 { return float64(s.snap.Load().cache.len()) })
	reg.GaugeFunc("pathrank_snapshot_age_seconds",
		"Age of the serving snapshot (resets on every hot swap).",
		func() float64 { return time.Since(s.snap.Load().loaded).Seconds() })
	reg.GaugeFunc("pathrank_model_generation",
		"Lineage generation of the serving artifact.",
		func() float64 { return float64(s.snap.Load().art.Lineage.Generation) })
	reg.GaugeFunc("process_uptime_seconds",
		"Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("go_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_memstats_alloc_bytes",
		"Bytes of allocated heap objects.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.Alloc)
		})
	return m
}

// observeRank records one completed rank request (success or typed
// failure) answered on snap.
func observeRank(snap *snapshot, start time.Time) {
	snap.latency.Observe(time.Since(start).Seconds())
}
