package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"pathrank/internal/partition"
)

// runConfig is one invocation.
type runConfig struct {
	Workload workload
	Seed     int64
	Seconds  float64
	Scale    float64
	Trace    bool
	OutDir   string
}

// setupRepeats is how many times an untraced run sets the world up; the
// reported setup_s is the median. A traced run sets up once.
const setupRepeats = 3

// phase is the raw outcome of sending a request sequence once.
type phase struct {
	rawMs   []float64 // per request
	hit     []bool    // per request: answered from the result cache
	refs    []refSample
	failed  int // queries
	reasons []string
	samples []sampled
}

// result is everything one run measured.
type result struct {
	cfg       runConfig
	plan      *plan
	world     *world
	setups    []float64 // calibrated seconds, one per set-up
	timed     *phase
	calib     *calibrator
	calMs     []float64 // calibrated per-request latency, in sending order
	sortedMs  []float64 // the same, ascending
	failed    int
	reasons   []string
	proc      procDelta
	layers    map[string]float64 // per-layer metrics of the traced replay
	traceFile string
}

type procDelta struct {
	mallocs, bytes uint64
	gcPauseNs      uint64
	gcCycles       uint32
	cpuSeconds     float64
	peakRSSMB      float64
}

func shardOwner() ([]int32, error) {
	g, err := worldGraph()
	if err != nil {
		return nil, err
	}
	split, err := partition.Split(g, shardParts)
	if err != nil {
		return nil, err
	}
	return split.Owner, nil
}

// runOnce does set-up → warm-up → timed phase → verification, and for a
// traced run the replay.
func runOnce(cfg runConfig) (*result, error) {
	w := cfg.Workload
	var owner []int32
	if w.Sharded {
		var err error
		if owner, err = shardOwner(); err != nil {
			return nil, err
		}
	}
	p, err := buildPlan(w, cfg.Seed, cfg.Seconds, cfg.Scale, owner)
	if err != nil {
		return nil, err
	}
	res := &result{cfg: cfg, plan: p}
	kernel := newRefKernel()

	repeats := setupRepeats
	if cfg.Trace {
		repeats = 1
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, err
	}
	for i := 0; i < repeats; i++ {
		if res.world != nil {
			res.world.close()
			res.world = nil
		}
		dir, err := os.MkdirTemp(cfg.OutDir, "world-")
		if err != nil {
			return nil, err
		}
		stop := sampleInBackground(kernel)
		world, err := buildWorld(dir, w.CacheSize, w.Sharded)
		refMs := stop()
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, err
		}
		res.world = world
		res.setups = append(res.setups, world.times.Total*nominalWorkMs/refMs)
	}
	defer res.world.close()

	c := newClient(res.world.handler)
	for _, r := range p.Warm {
		if code, _, _ := c.do(r.Body); code != http.StatusOK {
			return nil, fmt.Errorf("warm-up request answered %d", code)
		}
	}

	runtime.GC()
	before := readProc()
	res.timed = sendAll(c, kernel, p.Requests, w.RefEvery, w.OracleEvery)
	res.proc = readProc().sub(before)
	res.calib = &calibrator{samples: res.timed.refs}
	res.calMs = res.calib.apply(res.timed)
	res.sortedMs = append([]float64(nil), res.calMs...)
	sort.Float64s(res.sortedMs)

	orc, err := newOracle(res.world)
	if err != nil {
		return nil, err
	}
	bad, reasons := orc.verify(p, res.timed.samples)
	res.failed = res.timed.failed + bad
	res.reasons = append(res.timed.reasons, reasons...)

	if cfg.Trace {
		if err := res.tracedReplay(c, kernel); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// sampleInBackground measures the reference kernel's work part every 50 ms on a
// goroutine of its own until the returned function is called, which waits
// for the goroutine and returns the median sample. A set-up is one long
// call, so the kernel cannot be interleaved with it the way it is with
// requests; it costs about 7 % of one core while the set-up runs.
func sampleInBackground(k *refKernel) (stop func() float64) {
	done := make(chan struct{})
	out := make(chan []float64, 1) // one send, never blocks
	go func() {
		ms := []float64{k.sample(0).WorkMs}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				out <- append(ms, k.sample(0).WorkMs)
				return
			case <-tick.C:
				ms = append(ms, k.sample(0).WorkMs)
			}
		}
	}()
	return func() float64 {
		close(done)
		return median(<-out)
	}
}

// sendAll sends reqs in order from the one client goroutine, running the
// reference kernel before every refEvery-th request and once after the
// last. A non-200 or empty answer fails every query of its request. Every
// keep-th response body is retained for the oracle.
func sendAll(c *client, kernel *refKernel, reqs []*request, refEvery, keep int) *phase {
	ph := &phase{rawMs: make([]float64, len(reqs)), hit: make([]bool, len(reqs))}
	for i, r := range reqs {
		if i%refEvery == 0 {
			ph.refs = append(ph.refs, kernel.sample(i))
		}
		code, body, d := c.do(r.Body)
		ph.rawMs[i] = float64(d) / 1e6
		if code != http.StatusOK || len(body) == 0 {
			ph.failed += len(r.Queries)
			if len(ph.reasons) < 5 {
				ph.reasons = append(ph.reasons, fmt.Sprintf("request %d: status %d, %d bytes", i, code, len(body)))
			}
			continue
		}
		head := body
		if len(head) > 96 {
			head = head[:96]
		}
		ph.hit[i] = !r.Batch && bytes.Contains(head, cachedTrue)
		if keep > 0 && i%keep == 0 {
			ph.samples = append(ph.samples, sampled{index: i, body: append([]byte(nil), body...)})
		}
	}
	ph.refs = append(ph.refs, kernel.sample(len(reqs)))
	return ph
}

// cachedTrue marks a single-query response that came from the result cache;
// it sits within the first bytes of the body, before the paths.
var cachedTrue = []byte(`"cached":true`)

// apply calibrates every request of a phase: cache hits against the wire
// part of the kernel, the rest against the work part.
func (c *calibrator) apply(ph *phase) []float64 {
	out := make([]float64, len(ph.rawMs))
	for i, ms := range ph.rawMs {
		out[i] = ms * c.factor(i, ph.hit[i])
	}
	return out
}

func readProc() procDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procDelta{
		mallocs: ms.Mallocs, bytes: ms.TotalAlloc,
		gcPauseNs: ms.PauseTotalNs, gcCycles: ms.NumGC,
		cpuSeconds: tv(ru.Utime) + tv(ru.Stime),
		peakRSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

func (a procDelta) sub(b procDelta) procDelta {
	return procDelta{
		mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes,
		gcPauseNs: a.gcPauseNs - b.gcPauseNs, gcCycles: a.gcCycles - b.gcCycles,
		cpuSeconds: a.cpuSeconds - b.cpuSeconds,
		peakRSSMB:  a.peakRSSMB,
	}
}

// typicalMs is what the requests take together when each costs the median
// of its group, a group being the requests of one plan kind that the result
// cache did, or did not, answer. The plain sum moves with how many requests
// a neighbour's time slice or a garbage-collection cycle happened to
// delay, which differs between runs of the same code on a shared box by more
// than a bound can allow; the medians do not, while they still move with the
// cost of every trip length, with the hit ratio and with the mix.
func typicalMs(reqs []*request, hit []bool, ms []float64) float64 {
	type group struct {
		kind int
		hit  bool
	}
	groups := map[group][]float64{}
	for i, r := range reqs {
		g := group{r.Kind, hit[i]}
		groups[g] = append(groups[g], ms[i])
	}
	var total float64
	for _, g := range groups {
		total += float64(len(g)) * median(g)
	}
	return total
}

// endToEnd returns the end-to-end metrics of a finished run.
func (r *result) endToEnd() map[string]float64 {
	return map[string]float64{
		"qps":     float64(r.plan.queries()) / (typicalMs(r.plan.Requests, r.timed.hit, r.calMs) / 1e3),
		"p50_ms":  sortedPercentile(r.sortedMs, 0.50),
		"p99_ms":  sortedPercentile(r.sortedMs, 0.99),
		"setup_s": median(r.setups),
	}
}
