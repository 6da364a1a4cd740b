package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"pathrank"
	"pathrank/internal/api"
)

// hdrHist is a log-bucketed latency histogram in the spirit of HDR
// histograms: values share an octave (power of two) split into subCount
// linear sub-buckets, bounding the relative error of any recorded value —
// and so of any reported quantile — to 1/subCount. That keeps p999 honest
// without storing every sample.
type hdrHist struct {
	counts []uint64
	total  uint64
	sum    float64
	max    float64
}

const (
	histOctaves  = 40 // covers 1ns .. ~4.8 hours in nanoseconds
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 sub-buckets: <= ~3% relative error
)

func newHdrHist() *hdrHist {
	return &hdrHist{counts: make([]uint64, histOctaves*histSubCount)}
}

// bucketOf maps a nanosecond value onto its bucket index.
func bucketOf(ns uint64) int {
	if ns < histSubCount {
		return int(ns) // the first octaves are exact
	}
	octave := bits.Len64(ns) - histSubBits // >= 1
	sub := ns >> uint(octave-1)            // top histSubBits+1 bits; high bit set
	idx := octave*histSubCount + int(sub) - histSubCount
	if idx >= len(bucketMids) {
		idx = len(bucketMids) - 1
	}
	return idx
}

// bucketMids caches each bucket's representative value (its midpoint).
var bucketMids = func() []float64 {
	mids := make([]float64, histOctaves*histSubCount)
	for i := range mids {
		lo, hi := bucketBounds(i)
		mids[i] = (lo + hi) / 2
	}
	return mids
}()

// bucketBounds returns the [lo, hi) nanosecond range of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < histSubCount {
		return float64(i), float64(i + 1)
	}
	octave := i / histSubCount
	sub := i % histSubCount
	width := math.Exp2(float64(octave - 1)) // sub-bucket width in this octave
	lo = (float64(histSubCount) + float64(sub)) * width
	return lo, lo + width
}

// observe records one latency.
func (h *hdrHist) observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.counts[bucketOf(ns)]++
	h.total++
	h.sum += float64(ns)
	if f := float64(ns); f > h.max {
		h.max = f
	}
}

// quantile returns the q-quantile (0 < q <= 1) in nanoseconds, 0 when
// empty.
func (h *hdrHist) quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketMids[i]
		}
	}
	return h.max
}

// mean returns the mean latency in nanoseconds.
func (h *hdrHist) mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// genConfig parameterizes one load run.
type genConfig struct {
	BaseURL  string
	Rate     float64 // target arrival rate in requests/second
	Duration time.Duration
	Seed     int64
	Vertices int64 // OD pairs are sampled uniformly from [0, Vertices)

	K          int
	Strategies []string // sampled uniformly per request; empty = server default

	BatchRatio float64 // fraction of v2 requests that are batches
	BatchSize  int
	// ExplainRatio is the fraction of single v2 requests sent with
	// explain=true; against a sharded router the returned stats carry the
	// per-shard latency breakdown the report aggregates.
	ExplainRatio float64

	Timeout     time.Duration // per-request deadline
	MaxInFlight int           // arrivals past this many open requests are dropped, not delayed

	HTTP *http.Client // nil uses http.DefaultClient
}

// report is the machine-readable outcome of one load run.
type report struct {
	TargetRate  float64 `json:"target_rate"`
	DurationS   float64 `json:"duration_s"`
	Requests    int64   `json:"requests"`
	Queries     int64   `json:"queries"` // batch requests count each query
	AchievedRPS float64 `json:"achieved_rps"`
	AchievedQPS float64 `json:"achieved_qps"`
	// Dropped counts arrivals discarded because MaxInFlight requests were
	// already open. Dropping — instead of delaying the arrival process —
	// keeps the generator open-loop: a slow server cannot slow the clock
	// down and flatter its own latency numbers (coordinated omission).
	Dropped int64            `json:"dropped_arrivals"`
	Errors  map[string]int64 `json:"errors,omitempty"` // by typed api code
	Latency latencyReport    `json:"latency_ms"`
	// Routes and ShardLatency are populated from explain-sampled requests
	// (ExplainRatio > 0) against a sharded router: how queries routed
	// (co_shard vs cross_shard) and each shard's contribution by role.
	Routes       map[string]int64     `json:"routes,omitempty"`
	ShardLatency []shardLatencyReport `json:"shard_latency,omitempty"`
}

// shardLatencyReport aggregates one shard's contribution to the sampled
// queries in one role (proxy, boundary, or corridor).
type shardLatencyReport struct {
	Shard    int     `json:"shard"`
	Role     string  `json:"role"`
	Requests int64   `json:"requests"` // sampled queries this shard served in this role
	Calls    int64   `json:"calls"`    // HTTP calls, counting hedged duplicates
	MeanMs   float64 `json:"mean_ms"`  // mean summed shard wall time per query
	Hedged   int64   `json:"hedged"`   // sampled queries where the hedge fired
}

type latencyReport struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Max  float64 `json:"max"`
}

// outcome is one completed request as seen by the collector.
type outcome struct {
	latency time.Duration
	queries int64
	errors  map[string]int64
	route   string          // explain-sampled route kind, "" when unsampled
	shards  []api.ShardStat // explain-sampled per-shard breakdown
}

// runLoad drives an open-loop Poisson arrival process against the server
// until cfg.Duration elapses or ctx is canceled, then waits for in-flight
// requests and reports. Arrivals are scheduled from a seeded source —
// inter-arrival gaps are exponential with mean 1/Rate — and each request
// runs in its own goroutine, so server latency never feeds back into the
// arrival clock.
func runLoad(ctx context.Context, cfg genConfig) (*report, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("rate must be positive, got %v", cfg.Rate)
	}
	if cfg.Vertices < 2 {
		return nil, fmt.Errorf("need at least 2 vertices to sample OD pairs, got %d", cfg.Vertices)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	// MaxRetries -1 really means zero attempts after the first: a load
	// generator must report backlog and timeouts, not paper over them.
	client := &pathrank.Client{BaseURL: cfg.BaseURL, HTTP: cfg.HTTP, MaxRetries: -1}

	rng := rand.New(rand.NewSource(cfg.Seed))
	results := make(chan outcome, cfg.MaxInFlight)
	sem := make(chan struct{}, cfg.MaxInFlight)

	rep := &report{TargetRate: cfg.Rate, Errors: make(map[string]int64)}
	hist := newHdrHist()
	routes := make(map[string]int64)
	type shardKey struct {
		shard int
		role  string
	}
	type shardAgg struct {
		reqs, calls, hedged, ns int64
	}
	shardAggs := make(map[shardKey]*shardAgg)
	var collect sync.WaitGroup
	collect.Add(1)
	go func() {
		defer collect.Done()
		for o := range results {
			rep.Requests++
			rep.Queries += o.queries
			hist.observe(o.latency)
			for code, n := range o.errors {
				rep.Errors[code] += n
			}
			if o.route != "" {
				routes[o.route]++
			}
			for _, s := range o.shards {
				k := shardKey{s.Shard, s.Role}
				a := shardAggs[k]
				if a == nil {
					a = &shardAgg{}
					shardAggs[k] = a
				}
				a.reqs++
				a.calls += int64(s.Calls)
				a.ns += s.TotalNs
				if s.Hedged {
					a.hedged++
				}
			}
		}
	}()

	var inflight sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	next := start
	for {
		// Exponential inter-arrival gap: a Poisson process in the limit.
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.Rate * float64(time.Second)))
		if next.After(deadline) {
			break
		}
		if d := time.Until(next); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break
		}
		// The mix is decided on the scheduler goroutine with the seeded
		// source, so a given seed always produces the same request sequence.
		spec := nextSpec(rng, cfg)
		select {
		case sem <- struct{}{}:
		default:
			rep.Dropped++
			continue
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			results <- execute(ctx, client, cfg, spec)
		}()
	}
	inflight.Wait()
	close(results)
	collect.Wait()

	elapsed := time.Since(start).Seconds()
	rep.DurationS = elapsed
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Requests) / elapsed
		rep.AchievedQPS = float64(rep.Queries) / elapsed
	}
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	ms := func(ns float64) float64 { return ns / 1e6 }
	rep.Latency = latencyReport{
		Mean: ms(hist.mean()),
		P50:  ms(hist.quantile(0.50)),
		P90:  ms(hist.quantile(0.90)),
		P95:  ms(hist.quantile(0.95)),
		P99:  ms(hist.quantile(0.99)),
		P999: ms(hist.quantile(0.999)),
		Max:  ms(hist.max),
	}
	if len(routes) > 0 {
		rep.Routes = routes
	}
	for k, a := range shardAggs {
		rep.ShardLatency = append(rep.ShardLatency, shardLatencyReport{
			Shard: k.shard, Role: k.role,
			Requests: a.reqs, Calls: a.calls,
			MeanMs: float64(a.ns) / float64(a.reqs) / 1e6,
			Hedged: a.hedged,
		})
	}
	sort.Slice(rep.ShardLatency, func(i, j int) bool {
		a, b := rep.ShardLatency[i], rep.ShardLatency[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Role < b.Role
	})
	return rep, nil
}

// requestSpec is one scheduled request, fully decided before dispatch.
type requestSpec struct {
	queries []pathrank.RankQuery
	batch   bool
}

// nextSpec samples the next request from the configured mix.
func nextSpec(rng *rand.Rand, cfg genConfig) requestSpec {
	spec := requestSpec{}
	spec.batch = rng.Float64() < cfg.BatchRatio
	n := 1
	if spec.batch {
		n = cfg.BatchSize
	}
	spec.queries = make([]pathrank.RankQuery, n)
	for i := range spec.queries {
		q := pathrank.RankQuery{K: cfg.K}
		q.Src = rng.Int63n(cfg.Vertices)
		q.Dst = rng.Int63n(cfg.Vertices - 1)
		if q.Dst >= q.Src { // uniform over pairs with src != dst
			q.Dst++
		}
		if len(cfg.Strategies) > 0 {
			q.Strategy = cfg.Strategies[rng.Intn(len(cfg.Strategies))]
		}
		// Explain sampling applies to single requests only, and draws from
		// the source only when enabled so existing seeds keep their request
		// sequences.
		if cfg.ExplainRatio > 0 && !spec.batch {
			q.Explain = rng.Float64() < cfg.ExplainRatio
		}
		spec.queries[i] = q
	}
	return spec
}

// execute runs one request and classifies its outcome. Latency is wall
// time of the whole HTTP exchange, including a batch's every query.
func execute(ctx context.Context, client *pathrank.Client, cfg genConfig, spec requestSpec) outcome {
	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	o := outcome{queries: int64(len(spec.queries))}
	start := time.Now()
	if spec.batch {
		items, err := client.RankBatch(rctx, spec.queries, 0)
		o.errors = classify(err)
		for _, it := range items {
			if it.Error != nil {
				o.errors = addErr(o.errors, it.Error.Code)
			}
		}
	} else {
		res, err := client.Rank(rctx, spec.queries[0])
		o.errors = classify(err)
		if err == nil && res.Stats != nil {
			o.route = res.Stats.Route
			o.shards = res.Stats.Shards
		}
	}
	o.latency = time.Since(start)
	return o
}

// classify maps a request error onto an error-code key.
func classify(err error) map[string]int64 {
	if err == nil {
		return nil
	}
	var apiErr *pathrank.APIError
	if errors.As(err, &apiErr) {
		return addErr(nil, apiErr.Code)
	}
	return addErr(nil, "transport")
}

func addErr(m map[string]int64, code string) map[string]int64 {
	if m == nil {
		m = make(map[string]int64)
	}
	m[code]++
	return m
}

// text renders the report for humans, one stable line per fact.
func (r *report) text() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "target      %.1f req/s for %.1fs\n", r.TargetRate, r.DurationS)
	fmt.Fprintf(&b, "achieved    %.1f req/s (%.1f queries/s, %d requests)\n", r.AchievedRPS, r.AchievedQPS, r.Requests)
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "dropped     %d arrivals (in-flight cap hit; raise -max-inflight or lower -rate)\n", r.Dropped)
	}
	if len(r.Errors) > 0 {
		codes := make([]string, 0, len(r.Errors))
		for c := range r.Errors {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			fmt.Fprintf(&b, "errors      %-18s %d\n", c, r.Errors[c])
		}
	}
	l := r.Latency
	fmt.Fprintf(&b, "latency ms  mean %.3f  p50 %.3f  p90 %.3f  p95 %.3f  p99 %.3f  p999 %.3f  max %.3f\n",
		l.Mean, l.P50, l.P90, l.P95, l.P99, l.P999, l.Max)
	if len(r.Routes) > 0 {
		kinds := make([]string, 0, len(r.Routes))
		for k := range r.Routes {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "routed      %-12s %d sampled\n", k, r.Routes[k])
		}
	}
	for _, s := range r.ShardLatency {
		fmt.Fprintf(&b, "shard %-3d   %-9s %5d queries  %5d calls  mean %.3f ms  %d hedged\n",
			s.Shard, s.Role, s.Requests, s.Calls, s.MeanMs, s.Hedged)
	}
	return b.String()
}
