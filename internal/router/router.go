// Package router implements the fan-out tier of a sharded PathRank
// deployment. A router owns no graph data beyond the shard map
// (internal/partition): vertex ownership, the boundary separator, its
// precomputed boundary-to-boundary distance tables, the cut edges, and a
// copy of the ranking model. It answers the ordinary /v2/rank surface:
//
//   - co-resident queries (both endpoints on one shard) are proxied to
//     the owning shard worker's own /v2/rank, whole;
//   - cross-shard queries are stitched: the endpoints' rows of the shard
//     map's endpoint-to-boundary tables, combined with the
//     boundary-to-boundary tables, give exact full-graph
//     source/destination distances at every separator vertex without a
//     shard call; a cost corridor extracted from each participating shard
//     is fused with the qualifying cut edges into a sub-road-network on
//     which the ordinary top-k enumeration runs.
//
// The corridor construction is exact, not approximate: the fused
// subgraph provably contains every vertex and edge of every loopless
// source→destination path of cost at most the corridor bound C, and the
// enumeration is accepted only when its statistics certify that no path
// outside the bound could have been accepted (otherwise C grows and the
// corridor is re-extracted). Paths and scores are therefore bit-identical
// to a single-process server over the unpartitioned graph.
//
// Shard calls are hedged: a call not answered within HedgeAfter fires a
// duplicate, and the first response wins; a shard that cannot be reached
// at all fails the query with the typed shard_unavailable code (503). A
// call's first attempt runs on the caller's goroutine, and only the hedge
// timer starts another. An attempt writes its request and reads the reply
// on the goroutine that makes it, over a keep-alive connection of the
// router's own HTTP/1.1 client (shardconn.go).
package router

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/obsv"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// maxShardResponse bounds a shard response body (corridor subgraphs of
// metro-scale shards are the large case).
const maxShardResponse = 1 << 30

const (
	// callTimeout bounds each individual shard call.
	callTimeout = 10 * time.Second
	// healthInterval is the shard health poll period and the staleness
	// bound for /healthz's per-shard view.
	healthInterval = 2 * time.Second
	// maxRounds caps corridor growth rounds per cross-shard query. The
	// final round jumps the bound past the total edge weight, so the
	// enumeration is certified complete regardless.
	maxRounds = 8
)

// Config parameterizes a Router.
type Config struct {
	// Shards maps shard index to the worker's base URL (e.g.
	// "http://10.0.0.3:8080"); its length must equal the bundle's Parts.
	Shards []string
	// HedgeAfter is how long a shard call may go unanswered before a
	// duplicate is fired (default 150ms; negative disables hedging).
	HedgeAfter time.Duration
	// MaxK, MaxBatch, MaxTimeout are the serve.Config limits, with the
	// same defaults (api.DefaultRankLimits).
	MaxK       int
	MaxBatch   int
	MaxTimeout time.Duration
	// Logf, when non-nil, receives operational log lines.
	Logf func(format string, args ...any)
}

// Router fans /v2/rank out over the shard workers of one bundle.
type Router struct {
	cfg   Config
	sm    *partition.ShardMap
	model *pathrank.Model
	fp    [sha256.Size]byte // sm.Fingerprint as the shard wire carries it
	start time.Time

	// boundary is the global separator in table order; bpos[v] is a
	// vertex's index into it (and into the D tables), -1 for non-boundary
	// vertices. shardBPos[s] lists shard s's boundary positions.
	boundary  []roadnet.VertexID
	bpos      []int32
	shardBPos [][]int32
	// dcols[metric][s] is the D table (DLen, then DTime) restricted to
	// shard s's boundary columns: |B| rows of |B_s| entries, so the
	// stitch reads each row's to-destination leg contiguously.
	dcols [2][][]float64

	shards []*shardPool
	health []atomicHealth

	obs routerMetrics
}

type routerMetrics struct {
	reg        *obsv.Registry
	requests   *obsv.CounterVec
	rankErrors *obsv.CounterVec
	routed     *obsv.CounterVec
	rounds     *obsv.HistogramVec
	// shards[s] holds shard s's children of the per-shard families.
	shards []shardMetrics
}

// shardMetrics are one shard's counters, resolved once in New so that a
// shard call formats no label.
type shardMetrics struct {
	// proxy and corridor count calls by role.
	proxy, corridor       obsv.Counter
	errors, hedges, dials obsv.Counter
}

// New builds a Router over a loaded shard map. shards in cfg.Shards must
// cover every shard of the bundle.
func New(sm *partition.ShardMap, cfg Config) (*Router, error) {
	if len(cfg.Shards) != sm.Parts {
		return nil, fmt.Errorf("router: bundle has %d shards, %d worker URLs configured", sm.Parts, len(cfg.Shards))
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 150 * time.Millisecond
	}
	api.DefaultRankLimits(&cfg.MaxK, &cfg.MaxBatch, &cfg.MaxTimeout)
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	model, err := sm.Model()
	if err != nil {
		return nil, err
	}
	model.Prepare() // the router scores stitched candidates itself
	var fp [sha256.Size]byte
	_, _ = hex.Decode(fp[:], []byte(sm.Fingerprint)) // Model refused a map whose fingerprint is not a hex SHA-256
	rt := &Router{
		fp:     fp,
		cfg:    cfg,
		sm:     sm,
		model:  model,
		start:  time.Now(),
		shards: make([]*shardPool, sm.Parts),
		health: make([]atomicHealth, sm.Parts),
	}
	rt.boundary = sm.GlobalBoundary()
	rt.bpos = make([]int32, sm.NumVertices)
	for i := range rt.bpos {
		rt.bpos[i] = -1
	}
	for i, v := range rt.boundary {
		rt.bpos[v] = int32(i)
	}
	rt.shardBPos = make([][]int32, sm.Parts)
	for s, list := range sm.Boundary {
		pos := make([]int32, len(list))
		for i, v := range list {
			pos[i] = rt.bpos[v]
		}
		rt.shardBPos[s] = pos
	}
	nb := len(rt.boundary)
	for metric, D := range [2][]float64{sm.DLen, sm.DTime} {
		rt.dcols[metric] = make([][]float64, sm.Parts)
		for s, pos := range rt.shardBPos {
			cols := make([]float64, 0, nb*len(pos))
			for b := range nb {
				for _, p := range pos {
					cols = append(cols, D[b*nb+int(p)])
				}
			}
			rt.dcols[metric][s] = cols
		}
	}
	reg := obsv.NewRegistry()
	rt.obs = routerMetrics{
		reg:        reg,
		requests:   reg.Counter("pathrank_router_requests_total", "Router HTTP requests by path.", "path"),
		rankErrors: reg.Counter("pathrank_router_rank_errors_total", "Failed rank queries by error code.", "code"),
		routed:     reg.Counter("pathrank_router_routed_total", "Rank queries by route kind.", "route"),
		rounds: reg.Histogram("pathrank_router_corridor_rounds", "Corridor growth rounds per cross-shard query.",
			[]float64{1, 2, 3, 4, 6, 8}),
		shards: make([]shardMetrics, sm.Parts),
	}
	calls := reg.Counter("pathrank_router_shard_calls_total", "Shard sub-query calls by shard and role.", "shard", "role")
	errs := reg.Counter("pathrank_router_shard_errors_total", "Failed shard calls by shard.", "shard")
	hedges := reg.Counter("pathrank_router_hedges_total", "Hedged (duplicated) shard calls by shard.", "shard")
	dials := reg.Counter("pathrank_router_shard_dials_total", "Connections dialed to each shard.", "shard")
	// A batch has at most GOMAXPROCS calls open to one shard, so each pool
	// keeps MaxBatch × GOMAXPROCS idle connections: what MaxBatch batches
	// side by side use.
	maxIdle := cfg.MaxBatch * runtime.GOMAXPROCS(0)
	for s := range rt.obs.shards {
		label := fmt.Sprint(s)
		rt.obs.shards[s] = shardMetrics{
			proxy:    calls.With(label, "proxy"),
			corridor: calls.With(label, "corridor"),
			errors:   errs.With(label),
			hedges:   hedges.With(label),
			dials:    dials.With(label),
		}
		if rt.shards[s], err = newShardPool(cfg.Shards[s], maxIdle, rt.obs.shards[s].dials); err != nil {
			return nil, fmt.Errorf("router: shard %d: %w", s, err)
		}
	}
	return rt, nil
}

// Metrics returns the router's metric registry.
func (rt *Router) Metrics() *obsv.Registry { return rt.obs.reg }

// Handler returns the router's HTTP API: the public /v2/rank surface plus
// health and metrics.
func (rt *Router) Handler() http.Handler {
	return api.RouteTable(
		api.Route{Method: http.MethodPost, Path: "/v2/rank", Handler: rt.handleRank},
		api.Route{Method: http.MethodGet, Path: "/healthz", Handler: rt.handleHealthz},
		api.Route{Method: http.MethodGet, Path: "/metrics", Handler: func(w http.ResponseWriter, r *http.Request) {
			rt.obs.requests.With("/metrics").Inc()
			rt.obs.reg.ServeHTTP(w, r)
		}},
	)
}

// ---- shard health ----

type shardHealth struct {
	checked time.Time
	err     string
	info    api.ShardInfoResponse
}

type atomicHealth struct {
	mu sync.Mutex
	h  *shardHealth
}

func (a *atomicHealth) load() *shardHealth {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.h
}

func (a *atomicHealth) store(h *shardHealth) {
	a.mu.Lock()
	a.h = h
	a.mu.Unlock()
}

// PollHealth refreshes every shard's health each healthInterval until ctx
// is canceled. Without it, /healthz re-checks stale shards on demand.
func (rt *Router) PollHealth(ctx context.Context) {
	tick := time.NewTicker(healthInterval)
	defer tick.Stop()
	rt.refreshHealth(ctx, false)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			rt.refreshHealth(ctx, false)
		}
	}
}

// refreshHealth re-checks shards whose last check is older than the
// interval (all of them when none have been checked); onlyStale softens
// this to serve /healthz without a poller running.
func (rt *Router) refreshHealth(ctx context.Context, onlyStale bool) {
	var wg sync.WaitGroup
	for i := range rt.health {
		if onlyStale {
			if h := rt.health[i].load(); h != nil && time.Since(h.checked) < healthInterval {
				continue
			}
		}
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rt.checkShard(ctx, shard)
		}(i)
	}
	wg.Wait()
}

func (rt *Router) checkShard(ctx context.Context, shard int) {
	cctx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	h := &shardHealth{checked: time.Now()}
	status, body, err := rt.shards[shard].roundTrip(cctx, http.MethodGet, "/shard/info", "", nil)
	switch {
	case err != nil:
		h.err = err.Error()
	case status != http.StatusOK:
		h.err = fmt.Sprintf("shard info: HTTP %d", status)
	default:
		if err := json.Unmarshal(body, &h.info); err != nil {
			h.err = fmt.Sprintf("shard info: %v", err)
		} else if h.info.Shard != shard {
			h.err = fmt.Sprintf("worker identifies as shard %d, configured as %d", h.info.Shard, shard)
		} else if h.info.Fingerprint != rt.sm.Fingerprint {
			h.err = fmt.Sprintf("shard serves fingerprint %.12s, bundle is %.12s", h.info.Fingerprint, rt.sm.Fingerprint)
		}
	}
	rt.health[shard].store(h)
}

// routerHealth is the body of the router's GET /healthz: the same
// vertex/edge-bearing shape a single server reports (so clients like the
// load generator need no special casing), plus the per-shard view.
type routerHealth struct {
	Status           string        `json:"status"`
	Role             string        `json:"role"`
	APIVersions      []string      `json:"api_versions"`
	UptimeS          float64       `json:"uptime_s"`
	Vertices         int           `json:"vertices"`
	Edges            int           `json:"edges"`
	Parts            int           `json:"parts"`
	BoundaryVertices int           `json:"boundary_vertices"`
	CutEdges         int           `json:"cut_edges"`
	ModelParams      int           `json:"model_params"`
	Fingerprint      string        `json:"fingerprint"`
	Shards           []shardStatus `json:"shards"`
}

type shardStatus struct {
	Shard       int     `json:"shard"`
	URL         string  `json:"url"`
	Healthy     bool    `json:"healthy"`
	Error       string  `json:"error,omitempty"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	CheckedAgoS float64 `json:"checked_ago_s,omitempty"`
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.obs.requests.With("/healthz").Inc()
	rt.refreshHealth(r.Context(), true)
	resp := routerHealth{
		Status:           "ok",
		Role:             "router",
		APIVersions:      []string{"v2"},
		UptimeS:          time.Since(rt.start).Seconds(),
		Vertices:         rt.sm.NumVertices,
		Edges:            rt.sm.NumEdges,
		Parts:            rt.sm.Parts,
		BoundaryVertices: len(rt.boundary),
		CutEdges:         len(rt.sm.CutEdges),
		ModelParams:      rt.model.NumParams(),
		Fingerprint:      rt.sm.Fingerprint,
	}
	for i := range rt.health {
		st := shardStatus{Shard: i, URL: rt.cfg.Shards[i]}
		if h := rt.health[i].load(); h != nil {
			st.Healthy = h.err == ""
			st.Error = h.err
			st.Fingerprint = h.info.Fingerprint
			st.CheckedAgoS = time.Since(h.checked).Seconds()
		} else {
			st.Error = "not checked yet"
		}
		if !st.Healthy {
			resp.Status = "degraded"
		}
		resp.Shards = append(resp.Shards, st)
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// ---- shard calls with hedging ----

// callMeta accounts one logical shard call: how many HTTP attempts it
// took, their summed wall time, and whether the hedge fired.
type callMeta struct {
	calls   int
	totalNs int64
	hedged  bool
}

// attemptResult is one HTTP attempt at a shard call: the status and body
// of its response, or the transport-level error that left it without one.
type attemptResult struct {
	status int
	body   []byte
	ns     int64
	err    error
}

// callShard POSTs body to a shard's path as one logical call with hedged
// retry. The first attempt runs on the caller's goroutine. If it is still
// unanswered after HedgeAfter, a timer starts a duplicate on the timer's
// goroutine; if it fails at transport level and no duplicate runs, it is
// retried at once, inline. The first transport-level success wins,
// whatever its HTTP status: a duplicate that wins cancels the first
// attempt, and the duplicate still running when the call returns is
// canceled. contentType is body's type: JSON for a proxied /v2/rank
// query, the shard wire's for a corridor sub-query.
func (rt *Router) callShard(ctx context.Context, shard int, path, contentType string, body []byte) (int, []byte, callMeta, error) {
	obs := &rt.obs.shards[shard]
	meta := callMeta{calls: 1}
	actx, cancel := context.WithTimeout(ctx, callTimeout)
	defer cancel()
	var dup *duplicate
	if rt.cfg.HedgeAfter > 0 {
		dup = rt.hedge(ctx, shard, path, contentType, body, cancel)
		defer dup.abandon()
	}
	r := rt.attempt(actx, shard, path, contentType, body)
	meta.totalNs += r.ns
	switch {
	case dup.fired():
		meta.calls++
		meta.hedged = true
		obs.hedges.Inc()
		if r.err != nil && ctx.Err() == nil {
			// The duplicate either beat the first attempt and canceled it,
			// or is the call's second and last attempt.
			r = <-dup.res
			meta.totalNs += r.ns
		}
	case r.err != nil && ctx.Err() == nil:
		// The first attempt failed outright: retry at once instead of
		// waiting for the hedge timer.
		meta.calls++
		rctx, rcancel := context.WithTimeout(ctx, callTimeout)
		r = rt.attempt(rctx, shard, path, contentType, body)
		rcancel()
		meta.totalNs += r.ns
	}
	if r.err == nil {
		return r.status, r.body, meta, nil
	}
	obs.errors.Inc()
	if err := ctx.Err(); err != nil {
		return 0, nil, meta, err
	}
	return 0, nil, meta, r.err
}

// duplicate is the hedged second attempt of a shard call, which the
// HedgeAfter timer runs on its own goroutine.
type duplicate struct {
	timer *time.Timer
	res   chan attemptResult // buffered: a duplicate that lost never blocks

	mu     sync.Mutex
	cancel context.CancelFunc // the running duplicate's
	over   bool               // the call has returned: a late duplicate stays unsent
}

// hedge arms the duplicate of a call whose first attempt runs under the
// context cancelFirst cancels.
func (rt *Router) hedge(ctx context.Context, shard int, path, contentType string, body []byte, cancelFirst context.CancelFunc) *duplicate {
	d := &duplicate{res: make(chan attemptResult, 1)}
	d.timer = time.AfterFunc(rt.cfg.HedgeAfter, func() {
		d.mu.Lock()
		if d.over {
			d.mu.Unlock()
			return
		}
		actx, cancel := context.WithTimeout(ctx, callTimeout)
		d.cancel = cancel
		d.mu.Unlock()
		r := rt.attempt(actx, shard, path, contentType, body)
		cancel()
		if r.err == nil {
			cancelFirst() // the caller takes this answer once its attempt gives up
		}
		d.res <- r
	})
	return d
}

// fired stops the hedge timer and reports whether it had already started
// the duplicate. It is called once, when the first attempt is over; a nil
// duplicate (hedging off) never fires.
func (d *duplicate) fired() bool { return d != nil && !d.timer.Stop() }

// abandon cancels the duplicate, if it runs, when the call returns.
func (d *duplicate) abandon() {
	d.mu.Lock()
	d.over = true
	if d.cancel != nil {
		d.cancel()
	}
	d.mu.Unlock()
}

// attempt makes one HTTP POST of body to shard's path under ctx.
func (rt *Router) attempt(ctx context.Context, shard int, path, contentType string, body []byte) attemptResult {
	start := time.Now()
	status, b, err := rt.shards[shard].roundTrip(ctx, http.MethodPost, path, contentType, body)
	return attemptResult{status: status, body: b, ns: time.Since(start).Nanoseconds(), err: err}
}

// shardUnavailable wraps a transport-level shard failure in the typed
// error clients retry on.
func shardUnavailable(shard int, err error) *api.Error {
	code := api.CodeShardUnavailable
	if errors.Is(err, context.DeadlineExceeded) {
		code = api.CodeDeadline
	} else if errors.Is(err, context.Canceled) {
		code = api.CodeCanceled
	}
	return &api.Error{
		Status:  api.HTTPStatus(code),
		Code:    code,
		Message: fmt.Sprintf("shard %d unreachable: %v", shard, err),
	}
}

// shardHTTPError relays a shard's own typed error; an unreadable body
// degrades to shard_unavailable.
func shardHTTPError(shard, status int, body []byte) *api.Error {
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Error != nil {
		env.Error.Status = status
		return env.Error
	}
	return &api.Error{
		Status: http.StatusServiceUnavailable, Code: api.CodeShardUnavailable,
		Message: fmt.Sprintf("shard %d: HTTP %d with unreadable error body", shard, status),
	}
}

// shardProtocolError reports a shard answering outside the bundle's
// contract (wrong generation, malformed payload) as shard_unavailable:
// retrying may reach a recovered or re-deployed worker.
func shardProtocolError(shard int, msg string) *api.Error {
	return &api.Error{
		Status: http.StatusServiceUnavailable, Code: api.CodeShardUnavailable,
		Message: fmt.Sprintf("shard %d: %s", shard, msg),
	}
}
