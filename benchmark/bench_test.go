package main

import (
	"math"
	"testing"
	"time"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	owner, err := shardOwner()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		a, err := buildPlan(w, 7, 12, 0.05, owner)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(w, 7, 12, 0.05, owner)
		c, _ := buildPlan(w, 8, 12, 0.05, owner)
		if a.Hash != b.Hash {
			t.Errorf("%s: same seed gave streams %s and %s", w.Name, a.Hash, b.Hash)
		}
		if a.Hash == c.Hash {
			t.Errorf("%s: seeds 7 and 8 gave the same stream %s", w.Name, a.Hash)
		}
		if len(a.Requests) != len(c.Requests) {
			t.Errorf("%s: request count depends on the seed: %d vs %d", w.Name, len(a.Requests), len(c.Requests))
		}
		t.Logf("%s: %d requests, stream %s", w.Name, len(a.Requests), a.Hash)
	}
}

func TestShardedMixIsSeventyThirty(t *testing.T) {
	owner, err := shardOwner()
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("sharded_mix")
	p, err := buildPlan(w, 3, 12, 0.1, owner)
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	for _, r := range p.Requests {
		if q := r.Queries[0]; owner[q.Src] != owner[q.Dst] {
			cross++
		}
	}
	if got := float64(cross) / float64(len(p.Requests)); math.Abs(got-0.3) > 0.005 {
		t.Errorf("cross-shard share %.3f, want 0.30", got)
	}
}

// A machine that runs at a varying fraction of its nominal speed slows the
// reference kernel and the requests alike; calibration must give back the
// nominal request times exactly, each kind of request against its own part
// of the kernel.
func TestCalibratorRecoversSyntheticSlowdown(t *testing.T) {
	slowWork := func(i int) float64 { // piecewise constant, so the three nearest samples agree
		return []float64{1, 1.4, 0.8, 2.0}[i/100]
	}
	slowWire := func(i int) float64 { return []float64{1, 1.8, 0.7, 2.9}[i/100] }
	c := &calibrator{}
	for at := 0; at <= 400; at += 10 {
		i := at
		if i == 400 {
			i = 399
		}
		c.samples = append(c.samples, refSample{At: at, WorkMs: nominalWorkMs * slowWork(i), WireMs: nominalWireMs * slowWire(i)})
	}
	ph := &phase{rawMs: make([]float64, 400), hit: make([]bool, 400)}
	base := func(i int) float64 { return 3.0 + float64(i%7) }
	for i := range ph.rawMs {
		ph.hit[i] = i%3 == 0
		if ph.hit[i] {
			ph.rawMs[i] = base(i) * slowWire(i)
		} else {
			ph.rawMs[i] = base(i) * slowWork(i)
		}
	}
	cal := c.apply(ph)
	for i := 15; i < 400; i += 20 { // positions well inside each stretch
		if i%100 < 15 || i%100 > 85 {
			continue
		}
		if math.Abs(cal[i]-base(i)) > 1e-12 {
			t.Errorf("request %d (hit=%v): calibrated %.6f, want %.6f", i, ph.hit[i], cal[i], base(i))
		}
	}
	// One preempted kernel run must not move its neighbours.
	c.samples[5].WorkMs *= 10
	if got := c.factor(50, false); math.Abs(got-1) > 1e-12 {
		t.Errorf("factor next to an outlier sample is %v, want 1", got)
	}
}

// qps takes every request at the median of its group: delays that hit a
// minority of a group must not move it, a group that gets slower as a whole
// must, by its share, and so must a hit that becomes a miss.
func TestTypicalMsIgnoresTailsNotGroups(t *testing.T) {
	var reqs []*request
	var hit []bool
	var ms []float64
	add := func(kind int, h bool, n int, cost float64) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, &request{Kind: kind})
			hit = append(hit, h)
			ms = append(ms, cost)
		}
	}
	add(3, true, 900, 0.01)
	add(3, false, 40, 0.5)
	add(9, false, 60, 1.5)
	want := 900*0.01 + 40*0.5 + 60*1.5
	if got := typicalMs(reqs, hit, ms); math.Abs(got-want) > 1e-9 {
		t.Fatalf("typicalMs = %v, want %v", got, want)
	}
	for i := 0; i < len(ms); i += 3 { // a third of every group stalls
		ms[i] *= 20
	}
	if got := typicalMs(reqs, hit, ms); math.Abs(got-want) > 1e-9 {
		t.Errorf("stalled minority moved typicalMs to %v, want %v", got, want)
	}
	for i := range ms {
		if reqs[i].Kind == 9 {
			ms[i] *= 1.1
		}
	}
	if got := typicalMs(reqs, hit, ms); got < want+0.099*60*1.5 {
		t.Errorf("a slower kind moved typicalMs to %v only, want about %v", got, want+0.1*60*1.5)
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := percentile(xs, 0.5); got != 5.5 {
		t.Errorf("p50 = %v, want 5.5", got)
	}
	if got := percentile(xs, 0.9); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %v, want 9.1", got)
	}
	if got := percentile(xs, 1); got != 10 {
		t.Errorf("p100 = %v, want 10", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2], n=4) == [1.0, 3.0, 5.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2})
	if q1 != 1 || q2 != 3 || q3 != 5 {
		t.Errorf("quartiles = %v %v %v, want 1 3 5", q1, q2, q3)
	}
}

func TestCoveredCountsParallelChildrenOnce(t *testing.T) {
	kids := []span{{StartNs: 10, EndNs: 30}, {StartNs: 20, EndNs: 40}, {StartNs: 60, EndNs: 70}, {StartNs: 90, EndNs: 120}}
	if got := covered(kids, 0, 100); got != 30+10+10 {
		t.Errorf("covered = %d, want 50", got)
	}
}

func TestReportValidatorRejectsShortAndBrokenRuns(t *testing.T) {
	specs := []metricSpec{{Name: "qps", Unit: "1/s"}, {Name: "p50_ms", Unit: "ms"}}
	good := map[string]float64{"qps": 10, "p50_ms": 2}
	if rep, err := buildReport(specs, good, 100, 100, 100, 0); err != nil || !rep.Correct || rep.Metrics["qps"].Unit != "1/s" {
		t.Fatalf("good run rejected: %v %+v", err, rep)
	}
	if _, err := buildReport(specs, good, 100, 99, 100, 0); err == nil {
		t.Error("a truncated run passed")
	}
	if _, err := buildReport(specs, map[string]float64{"qps": 10}, 100, 100, 100, 0); err == nil {
		t.Error("a missing metric passed")
	}
	if _, err := buildReport(specs, map[string]float64{"qps": math.NaN(), "p50_ms": 2}, 100, 100, 100, 0); err == nil {
		t.Error("a NaN passed")
	}
	if _, err := buildReport(specs, map[string]float64{"qps": 1, "p50_ms": 2, "extra": 3}, 100, 100, 100, 0); err == nil {
		t.Error("an undeclared metric passed")
	}
	if rep, err := buildReport(specs, good, 100, 100, 100, 3); err != nil || rep.Correct || rep.Failed != 3 {
		t.Errorf("failed queries not reported: %v %+v", err, rep)
	}
}

// Every workload, end to end at a fiftieth of its size: set-up, warm-up,
// timed phase, oracle, traced replay, and both reports checked against
// BENCHMARK.json.
func TestSmokeAllWorkloads(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for _, w := range workloads {
		res, err := runOnce(runConfig{Workload: w, Seed: 5, Seconds: float64(m.RunSeconds), Scale: 0.02, Trace: true, OutDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.failed != 0 {
			t.Errorf("%s: %d failed queries: %v", w.Name, res.failed, res.reasons)
		}
		if len(res.timed.samples) == 0 {
			t.Errorf("%s: the oracle checked nothing", w.Name)
		}
		n := len(res.plan.Requests)
		if _, err := buildReport(m.EndToEnd, res.endToEnd(), n, len(res.timed.rawMs), res.plan.queries(), res.failed); err != nil {
			t.Errorf("%s: end-to-end report: %v", w.Name, err)
		}
		if _, err := buildReport(m.PerLayer, res.layers, n, len(res.timed.rawMs), res.plan.queries(), res.failed); err != nil {
			t.Errorf("%s: per-layer report: %v", w.Name, err)
		}
		ratio := res.layers["trace.layer_sum_ratio"]
		t.Logf("%s: %d requests, layer_sum_ratio %.3f, overhead %.1f%%", w.Name, n, ratio, res.layers["trace.overhead_pct"])
		if w.Name == "crosstown_uncached" && (ratio < 0.85 || ratio > 1.15) {
			t.Errorf("crosstown_uncached: the replayed layers sum to %.3f of the handler, want 0.85..1.15", ratio)
		}
		if w.Name == "sharded_mix" && math.Abs(res.layers["router.cross_share"]-0.3) > 0.11 {
			t.Errorf("sharded_mix: cross share %.2f", res.layers["router.cross_share"])
		}
	}
	// The target is 15 s; the box is shared and has spells at half speed.
	d := time.Since(start)
	t.Logf("smoke took %v", d)
	if d > 30*time.Second && !raceEnabled {
		t.Errorf("smoke took %v, want under 15s on a calm box", d)
	}
}
