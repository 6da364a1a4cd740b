package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/nn"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// span is one timed call into a layer. Spans are recorded from this
// package only, around the calls into each layer's public functions; the
// served program itself is not instrumented.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	Req     int    `json:"req"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
		Parent: parent, Req: req,
	})
	return len(t.spans) - 1
}

// open reserves a span whose end is set by close, so that spans recorded
// meanwhile can name it as their parent.
func (t *tracer) open(name string, parent, req int) int {
	now := time.Now()
	return t.add(name, now, now, parent, req)
}

func (t *tracer) close(i int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].EndNs = now.Sub(t.t0).Nanoseconds()
	return time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
}

// timed records fn as a child span and returns its duration.
func (t *tracer) timed(name string, parent, req int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, start, end, parent, req)
	return end.Sub(start)
}

// spanTap sits in front of a shard worker's handler. While a traced replay
// has armed it, every sub-query the router sends is recorded as a child of
// the router call in flight; otherwise it only forwards.
type spanTap struct {
	armed atomic.Pointer[tapTarget]
}

type tapTarget struct {
	tr          *tracer
	parent, req int
	mu          sync.Mutex
	corridorB   []float64 // response bytes of each corridor call
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}

func (s *spanTap) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tgt := s.armed.Load()
		if tgt == nil {
			h.ServeHTTP(w, r)
			return
		}
		name := "shardserve.other"
		switch r.URL.Path {
		case "/v2/rank":
			name = "shardserve.proxy"
		case "/shard/boundary":
			name = "shardserve.boundary"
		case "/shard/corridor":
			name = "shardserve.corridor"
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		tgt.tr.add(name, start, time.Now(), tgt.parent, tgt.req)
		if name == "shardserve.corridor" {
			tgt.mu.Lock()
			tgt.corridorB = append(tgt.corridorB, float64(cw.n))
			tgt.mu.Unlock()
		}
	})
}

// covered is the length of the union of the children's intervals inside
// [lo, hi]: parallel children are counted once.
func covered(children []span, lo, hi int64) int64 {
	sort.Slice(children, func(a, b int) bool { return children[a].StartNs < children[b].StartNs })
	var total, end int64 = 0, lo
	for _, c := range children {
		s, e := c.StartNs, c.EndNs
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// series collects the observations behind each per-layer metric.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }
func (s series) med(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return median(s[name])
}
func (s series) mean(name string) float64 { return mean(s[name]) }
func (s series) sum(name string) float64 {
	var t float64
	for _, v := range s[name] {
		t += v
	}
	return t
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// coreRequest turns a wire query into the request the ranking core takes.
func coreRequest(q api.RankQuery) (pathrank.RankRequest, error) {
	strategy, err := pathrank.ParseStrategyChoice(q.Strategy)
	if err != nil {
		return pathrank.RankRequest{}, err
	}
	return pathrank.RankRequest{
		Src: roadnet.VertexID(q.Src), Dst: roadnet.VertexID(q.Dst), K: q.K, Strategy: strategy,
	}, nil
}

// replayer holds what the traced replay calls the layers with and what it
// has observed so far.
type replayer struct {
	w      workload
	world  *world
	tr     *tracer
	obs    series
	ranker *pathrank.Ranker
	engine spath.Engine

	// Sums for the cross-check against what the server itself reports.
	explainGen, explainScore, replayGen, replayScore, tapNs, statNs float64
}

// tracedReplay sends the first Replay requests again with explain on and
// records spans around the handler call and around direct calls of the same
// queries into each layer; it then fills r.layers and writes the trace.
func (r *result) tracedReplay(c *client, kernel *refKernel) error {
	w := r.cfg.Workload
	n := int(math.Round(float64(w.Replay) * r.cfg.Scale))
	n = min(max(n, 10), len(r.plan.Requests))
	rp := &replayer{w: w, world: r.world, tr: &tracer{t0: time.Now()}, obs: series{}, ranker: r.world.mapped.NewRanker()}
	if rp.engine = rp.ranker.Engine; rp.engine == nil {
		return fmt.Errorf("traced replay: the served artifact has no prepared engine")
	}

	var refs []refSample
	tracedMs := make([]float64, n)
	hits := make([]bool, n)
	for i := 0; i < n; i++ {
		if i%w.RefEvery == 0 {
			refs = append(refs, kernel.sample(i))
		}
		handler, hit, err := rp.one(c, i, r.plan.Requests[i])
		if err != nil {
			return fmt.Errorf("traced replay: request %d: %w", i, err)
		}
		tracedMs[i], hits[i] = float64(handler)/1e6, hit
	}
	refs = append(refs, kernel.sample(n))

	// Tracing overhead: the same requests, traced against untraced, each
	// calibrated by the reference samples taken next to it.
	tcal := &calibrator{samples: refs}
	for i := range tracedMs {
		tracedMs[i] *= tcal.factor(i, hits[i])
	}
	untraced := median(r.calMs[:n])
	overhead := (median(tracedMs) - untraced) / untraced * 100

	r.layers = r.layerMetrics(rp.obs, overhead)
	check := map[string]float64{}
	// On the sharded tier explain's generation time holds the shard calls,
	// which the ShardStat rows cross-check instead.
	if rp.explainGen > 0 && !w.Sharded {
		check["replayed_generation_over_explain"] = rp.replayGen / rp.explainGen
	}
	if rp.explainScore > 0 && !w.Sharded {
		check["replayed_score_over_explain"] = rp.replayScore / rp.explainScore
	}
	if rp.statNs > 0 {
		check["tapped_shard_time_over_shardstat"] = rp.tapNs / rp.statNs
	}
	return writeTrace(filepath.Join(r.cfg.OutDir, w.Name+".trace.json"), r, rp.tr, check)
}

// one replays request i: the handler call, then the same work layer by
// layer. It returns how long the handler took and whether it was a cache hit.
func (rp *replayer) one(c *client, i int, req *request) (handler time.Duration, hit bool, err error) {
	tr, obs := rp.tr, rp.obs
	qs := append([]api.RankQuery(nil), req.Queries...)
	for j := range qs {
		qs[j].Explain = true
	}
	body := newRequest(qs, req.Batch, req.Kind).Body
	handlerName := "serve.handler"
	if rp.w.Sharded {
		handlerName = "router.handler"
	}

	// The handler call, with the shard taps armed.
	root := tr.open(handlerName, -1, i)
	var tgt *tapTarget
	if rp.w.Sharded {
		tgt = &tapTarget{tr: tr, parent: root, req: i}
		rp.world.shardSpans.armed.Store(tgt)
	}
	code, respBody, _ := c.do(body)
	if rp.w.Sharded {
		rp.world.shardSpans.armed.Store(nil)
	}
	handler = tr.close(root)
	if code != http.StatusOK {
		return 0, false, fmt.Errorf("answered %d", code)
	}
	resp := append([]byte(nil), respBody...)
	results, err := decodeResults(req, resp)
	if err != nil {
		return 0, false, err
	}
	obs.add(handlerName, us(handler))
	obs.add("api.response_bytes", float64(len(resp)))

	allCached := true
	for _, res := range results {
		if res == nil {
			return 0, false, fmt.Errorf("has a failed item")
		}
		allCached = allCached && res.Cached
		if st := res.Stats; st != nil {
			rp.explainGen += float64(st.GenNs)
			if !req.Batch || res == results[0] { // a batch reports its one sweep on every item
				rp.explainScore += float64(st.ScoreNs)
			}
		}
	}
	if allCached {
		obs.add("serve.hit", us(handler))
	}

	// Direct calls of the same work into each layer, in handler order.
	// wireWork is the handler's own JSON work; ranking is the work behind it,
	// which on the sharded tier the shards do instead.
	replay := tr.open("replay", -1, i)
	var wire api.RankRequest
	wireWork := tr.timed("api.decode", replay, i, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&wire)
	})
	if err != nil {
		return 0, false, fmt.Errorf("decode: %w", err)
	}
	obs.add("api.decode", us(wireWork))
	var ranking time.Duration
	if !allCached {
		if ranking, err = rp.rank(replay, i, qs); err != nil {
			return 0, false, err
		}
	}
	var payload any = results[0]
	if req.Batch {
		var br api.BatchResponse
		if err := json.Unmarshal(resp, &br); err != nil {
			return 0, false, err
		}
		payload = br
	}
	d := tr.timed("api.encode", replay, i, func() { _, err = json.Marshal(payload) })
	if err != nil {
		return 0, false, fmt.Errorf("encode: %w", err)
	}
	obs.add("api.encode", us(d))
	wireWork += d
	tr.close(replay)

	// The engine's point-to-point query alone, outside the replay sum:
	// candidate generation already contains it.
	for _, q := range qs {
		d = tr.timed("spath.shortest", -1, i, func() {
			_, err = rp.engine.ShortestCtx(context.Background(), roadnet.VertexID(q.Src), roadnet.VertexID(q.Dst))
		})
		if err != nil {
			return 0, false, fmt.Errorf("shortest: %w", err)
		}
		obs.add("spath.shortest", us(d))
	}

	if !rp.w.Sharded {
		children := wireWork + ranking
		obs.add("serve.self", us(handler-children))
		obs.add("layer_sum_ratio", float64(children)/float64(handler))
		return handler, allCached && !req.Batch, nil
	}
	if err := rp.routed(root, tgt, results[0].Stats, handler, wireWork); err != nil {
		return 0, false, err
	}
	return handler, false, nil
}

// rank replays candidate generation, the scoring sweep and the final sort
// for qs and returns how long they took together. A batch generates on
// GOMAXPROCS workers, as the handler does.
func (rp *replayer) rank(replay, i int, qs []api.RankQuery) (time.Duration, error) {
	tr, obs := rp.tr, rp.obs
	cands := make([][]spath.Path, len(qs))
	errs := make([]error, len(qs))
	took := make([]time.Duration, len(qs))
	gen := tr.open("spath.generate", replay, i)
	genOne := func(j int) {
		creq, err := coreRequest(qs[j])
		if err != nil {
			errs[j] = err
			return
		}
		took[j] = tr.timed("spath.candidates", gen, i, func() {
			cands[j], _, errs[j] = rp.ranker.CandidatesFor(context.Background(), creq)
		})
	}
	if workers := min(runtime.GOMAXPROCS(0), len(qs)); workers > 1 {
		jobs := make(chan int, len(qs)) // holds every index, so filling it never blocks
		for j := range qs {
			jobs <- j
		}
		close(jobs)
		var wg sync.WaitGroup
		for k := 0; k < workers; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					genOne(j)
				}
			}()
		}
		wg.Wait()
	} else {
		for j := range qs {
			genOne(j)
		}
	}
	total := tr.close(gen)
	var all []spath.Path
	for j := range qs {
		if errs[j] != nil {
			return 0, fmt.Errorf("candidates: %w", errs[j])
		}
		obs.add("spath.candidates", us(took[j]))
		rp.replayGen += float64(took[j])
		obs.add("spath.candidates_per_query", float64(len(cands[j])))
		all = append(all, cands[j]...)
	}
	var scores []float64
	d := tr.timed("pathrank.score", replay, i, func() { scores = rp.ranker.Model.ScoreBatch(all) })
	obs.add("pathrank.score", us(d))
	obs.add("pathrank.paths_per_sweep", float64(len(all)))
	rp.replayScore += float64(d)
	total += d
	off := 0
	for j := range qs {
		d = tr.timed("pathrank.rank_scored", replay, i, func() {
			pathrank.RankScored(cands[j], scores[off:off+len(cands[j])])
		})
		off += len(cands[j])
		obs.add("pathrank.rank_scored", us(d))
		total += d
	}
	return total, nil
}

// routed accounts for one router call: its children are the tapped shard
// calls, and explain's ShardStat rows say how it was routed.
func (rp *replayer) routed(root int, tgt *tapTarget, st *api.RankStats, handler, wireWork time.Duration) error {
	tr, obs := rp.tr, rp.obs
	if st == nil {
		return fmt.Errorf("no explain block")
	}
	tr.mu.Lock()
	rootSpan := tr.spans[root]
	var kids []span
	for _, s := range tr.spans[root+1:] {
		if s.Parent == root {
			kids = append(kids, s)
		}
	}
	tr.mu.Unlock()
	for _, s := range kids {
		obs.add(s.Name, float64(s.EndNs-s.StartNs)/1e3)
		rp.tapNs += float64(s.EndNs - s.StartNs)
	}
	cov := covered(kids, rootSpan.StartNs, rootSpan.EndNs)
	obs.add("router.self", float64(int64(handler)-cov)/1e3)
	obs.add("layer_sum_ratio", float64(cov+int64(wireWork))/float64(handler))
	for _, b := range tgt.corridorB {
		obs.add("shardserve.corridor_bytes", b)
	}
	cross, calls, rounds := 0.0, 0, 0
	if st.Route == "cross_shard" {
		cross = 1
	}
	for _, sh := range st.Shards {
		calls += sh.Calls
		rp.statNs += float64(sh.TotalNs)
		if sh.Role == "corridor" && sh.Calls > rounds {
			rounds = sh.Calls
		}
	}
	obs.add("router.cross", cross)
	obs.add("router.shard_calls", float64(calls))
	if cross == 1 {
		obs.add("router.corridor_rounds", float64(rounds))
	}
	return nil
}

// layerMetrics assembles every per-layer metric of the run. A metric that
// does not apply to the workload (router.* off the sharded tier, hits with
// the cache off) is reported as 0.
func (r *result) layerMetrics(obs series, overheadPct float64) map[string]float64 {
	w := r.world
	t := w.times
	m := map[string]float64{
		"spath.shortest_us":          obs.med("spath.shortest"),
		"spath.candidates_us":        obs.med("spath.candidates"),
		"spath.enumerate_us":         0,
		"spath.candidates_per_query": obs.mean("spath.candidates_per_query"),
		"spath.build_ch_s":           t.BuildPrep,
		"spath.ch_shortcuts":         float64(w.chShort),

		"pathrank.score_us":        obs.med("pathrank.score"),
		"pathrank.paths_per_sweep": obs.mean("pathrank.paths_per_sweep"),
		"pathrank.rank_scored_us":  obs.med("pathrank.rank_scored"),
		"pathrank.artifact_save_s": t.ArtifactSave,
		"pathrank.artifact_load_s": t.ArtifactLoad,

		"api.decode_us":      obs.med("api.decode"),
		"api.encode_us":      obs.med("api.encode"),
		"api.response_bytes": obs.mean("api.response_bytes"),

		"serve.handler_us":      obs.med("serve.handler"),
		"serve.self_us":         obs.med("serve.self"),
		"serve.hit_us":          obs.med("serve.hit"),
		"serve.cache_hit_ratio": cacheHitRatio(w),
		"serve.new_s":           t.ServeNew,

		"router.handler_us":            obs.med("router.handler"),
		"router.self_us":               obs.med("router.self"),
		"router.cross_share":           obs.mean("router.cross"),
		"router.corridor_rounds":       obs.mean("router.corridor_rounds"),
		"router.shard_calls_per_query": obs.mean("router.shard_calls"),
		"shardserve.proxy_us":          obs.med("shardserve.proxy"),
		"shardserve.boundary_us":       obs.med("shardserve.boundary"),
		"shardserve.corridor_us":       obs.med("shardserve.corridor"),
		"shardserve.corridor_bytes":    obs.mean("shardserve.corridor_bytes"),
		"partition.build_bundle_s":     t.BuildBundle,

		"trace.overhead_pct":    overheadPct,
		"trace.layer_sum_ratio": obs.med("layer_sum_ratio"),
	}
	if len(obs["spath.candidates"]) > 0 {
		m["spath.enumerate_us"] = obs.med("spath.candidates") - obs.med("spath.shortest")
	}
	if paths := obs.sum("pathrank.paths_per_sweep"); paths > 0 {
		m["pathrank.score_us_per_path"] = obs.sum("pathrank.score") / paths
	} else {
		m["pathrank.score_us_per_path"] = 0
	}
	if w.bundle != nil {
		m["partition.boundary_vertices"] = float64(w.bundle.BoundaryVertices)
		m["partition.imbalance"] = w.bundle.Imbalance
	} else {
		m["partition.boundary_vertices"] = 0
		m["partition.imbalance"] = 0
	}
	for k, v := range nnMicro() {
		m[k] = v
	}

	for k, v := range r.loadMetrics() {
		m[k] = v
	}
	return m
}

// loadMetrics is the timed phase seen from the process and from the load
// generator; it needs no replay.
func (r *result) loadMetrics() map[string]float64 {
	m := map[string]float64{}
	queries := float64(r.plan.queries())
	p := r.proc
	m["proc.allocs_per_query"] = float64(p.mallocs) / queries
	m["proc.kb_per_query"] = float64(p.bytes) / 1024 / queries
	m["proc.gc_pause_ms"] = float64(p.gcPauseNs) / 1e6
	m["proc.gc_cycles"] = float64(p.gcCycles)
	m["proc.cpu_s_per_kquery"] = p.cpuSeconds / (queries / 1000)
	m["proc.peak_rss_mb"] = p.peakRSSMB

	var rawSum, calSum float64
	for i, ms := range r.timed.rawMs {
		rawSum += ms
		calSum += r.calMs[i]
	}
	m["load.p90_ms"] = sortedPercentile(r.sortedMs, 0.90)
	m["load.p95_ms"] = sortedPercentile(r.sortedMs, 0.95)
	m["load.mean_qps"] = queries / (calSum / 1e3)
	m["load.raw_qps"] = queries / (rawSum / 1e3)
	m["load.raw_p50_ms"] = median(r.timed.rawMs)
	m["load.requests"] = float64(len(r.timed.rawMs))
	m["load.failed"] = float64(r.failed)

	work := make([]float64, len(r.timed.refs))
	wire := make([]float64, len(r.timed.refs))
	fmin, fmax := math.Inf(1), math.Inf(-1)
	for i, s := range r.timed.refs {
		work[i], wire[i] = s.WorkMs, s.WireMs
		f := r.calib.factor(s.At, false)
		fmin, fmax = math.Min(fmin, f), math.Max(fmax, f)
	}
	m["calib.ref_ms_p50"] = median(work)
	m["calib.ref_ms_p90"] = percentile(work, 0.9)
	m["calib.wire_ms_p50"] = median(wire)
	m["calib.samples"] = float64(len(work))
	m["calib.factor_min"] = fmin
	m["calib.factor_max"] = fmax
	return m
}

// cacheHitRatio scrapes the serving process's own counters, which by the
// time of the replay hold the warm-up and the timed phase.
func cacheHitRatio(w *world) float64 {
	var buf bytes.Buffer
	if err := w.server.Metrics().WritePrometheus(&buf); err != nil {
		return 0
	}
	var hit, miss float64
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, "pathrank_cache_events_total{") {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &v); err != nil {
			continue
		}
		switch {
		case strings.Contains(line, `event="hit"`):
			hit = v
		case strings.Contains(line, `event="miss"`):
			miss = v
		}
	}
	if hit+miss == 0 {
		return 0
	}
	return hit / (hit + miss)
}

// nnMicro times the kernels the scoring sweep is made of, at the shapes it
// uses: one input-side GRU gate product (embedding 128 → hidden 64) over a
// 256-row and a 5-row batch, and the vector sigmoid. GFLOP/s is computed
// from the shape, not measured.
func nnMicro() map[string]float64 {
	const emb, hidden = 128, 64
	rng := rand.New(rand.NewSource(1))
	fill := func(m nn.Mat) nn.Mat {
		for i := range m.Data {
			m.Data[i] = rng.Float64() - 0.5
		}
		return m
	}
	gemm := func(rows, reps int) float64 {
		a, b, c := fill(nn.NewMat(rows, emb)), fill(nn.NewMat(hidden, emb)), nn.NewMat(rows, hidden)
		ds := make([]float64, reps)
		for i := range ds {
			c.ZeroRows(rows)
			start := time.Now()
			nn.GemmNT(c, a, b)
			ds[i] = us(time.Since(start))
		}
		return median(ds)
	}
	b256 := gemm(256, 300)
	x := make(nn.Vec, 1<<14)
	for i := range x {
		x[i] = 8*rng.Float64() - 4
	}
	dst := make(nn.Vec, len(x))
	ds := make([]float64, 300)
	for i := range ds {
		start := time.Now()
		nn.SigmoidVec(dst, x)
		ds[i] = float64(time.Since(start)) / float64(len(x))
	}
	return map[string]float64{
		"nn.gemm_nt_us_b256":     b256,
		"nn.gemm_gflops_b256":    2 * 256 * emb * hidden / (b256 * 1e3),
		"nn.gemm_nt_us_b5":       gemm(5, 3000),
		"nn.sigmoid_ns_per_elem": median(ds),
	}
}

// traceFile is what a traced run leaves in out/<workload>.trace.json.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	StreamHash string             `json:"stream_hash"`
	Note       string             `json:"note"`
	CrossCheck map[string]float64 `json:"cross_check"`
	Layers     map[string]float64 `json:"per_layer"`
	Spans      []span             `json:"spans"`
}

func writeTrace(path string, r *result, tr *tracer, check map[string]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(traceFile{
		Workload: r.cfg.Workload.Name, Seed: r.cfg.Seed, StreamHash: r.plan.Hash,
		Note: "times in ns since the replay began; self time of a span is its length minus " +
			"the union of its children; 'replay' groups direct calls of the handler's work into each layer",
		CrossCheck: check, Layers: r.layers, Spans: tr.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	r.traceFile = path
	return nil
}
