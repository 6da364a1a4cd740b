package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// mockRank answers /v2/rank instantly with a minimal valid body, counting
// requests.
func mockRank(hits *atomic.Int64) http.Handler {
	mux := http.NewServeMux()
	rank := func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		var req struct {
			Src     int64 `json:"src"`
			Dst     int64 `json:"dst"`
			Queries []any `json:"queries"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		if len(req.Queries) > 0 {
			items := make([]map[string]any, len(req.Queries))
			for i := range items {
				items[i] = map[string]any{"index": i, "response": map[string]any{"paths": []any{}}}
			}
			_ = json.NewEncoder(w).Encode(map[string]any{"results": items})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"src": req.Src, "dst": req.Dst, "paths": []any{}})
	}
	mux.HandleFunc("POST /v2/rank", rank)
	return mux
}

// TestPoissonSchedulerHitsTargetRate drives the generator against an
// instant mock server: the achieved rate must land within tolerance of
// the target, and the arrival count must match what a Poisson process at
// that rate would produce.
func TestPoissonSchedulerHitsTargetRate(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(mockRank(&hits))
	defer ts.Close()

	const rate, durS = 400.0, 2.0
	rep, err := runLoad(context.Background(), genConfig{
		BaseURL:  ts.URL,
		Rate:     rate,
		Duration: time.Duration(durS * float64(time.Second)),
		Seed:     7,
		Vertices: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := rate * durS
	// Poisson noise at n=800 is ~28 (sqrt n); 20% tolerance also absorbs
	// scheduler jitter on a loaded test machine.
	if math.Abs(float64(rep.Requests)-want) > 0.20*want {
		t.Fatalf("requests = %d, want %.0f +/- 20%%", rep.Requests, want)
	}
	if math.Abs(rep.AchievedRPS-rate) > 0.20*rate {
		t.Fatalf("achieved rate = %.1f, want %.0f +/- 20%%", rep.AchievedRPS, rate)
	}
	if rep.Dropped != 0 {
		t.Fatalf("dropped %d arrivals against an instant server", rep.Dropped)
	}
	if got := hits.Load(); got != rep.Requests {
		t.Fatalf("server saw %d requests, report says %d", got, rep.Requests)
	}
	if len(rep.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", rep.Errors)
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P999 < rep.Latency.P50 {
		t.Fatalf("implausible latency report: %+v", rep.Latency)
	}
}

// TestMixAndDeterminism checks the batch share and that a seed
// replays the identical request sequence.
func TestMixAndDeterminism(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(mockRank(&hits))
	defer ts.Close()

	run := func() *report {
		rep, err := runLoad(context.Background(), genConfig{
			BaseURL:    ts.URL,
			Rate:       300,
			Duration:   time.Second,
			Seed:       42,
			Vertices:   50,
			BatchRatio: 0.5,
			BatchSize:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Requests != b.Requests || a.Queries != b.Queries {
		t.Fatalf("same seed diverged: %d/%d requests, %d/%d queries",
			a.Requests, b.Requests, a.Queries, b.Queries)
	}
	// Half of the requests are 4-query batches, so queries/requests
	// should be around 0.5 + 0.5*4 = 2.5.
	ratio := float64(a.Queries) / float64(a.Requests)
	if ratio < 1.9 || ratio > 3.1 {
		t.Fatalf("queries/request = %.2f, want ~2.5 for this mix", ratio)
	}
}

// TestHistogramQuantiles checks the HDR histogram's bounded relative
// error on a known distribution.
func TestHistogramQuantiles(t *testing.T) {
	h := newHdrHist()
	// 1..1000 microseconds, uniform: p50 = 500us, p99 = 990us.
	for us := 1; us <= 1000; us++ {
		h.observe(time.Duration(us) * time.Microsecond)
	}
	check := func(q, wantUs float64) {
		t.Helper()
		got := h.quantile(q) / 1e3 // ns -> us
		if math.Abs(got-wantUs) > 0.05*wantUs {
			t.Fatalf("q%.3f = %.1fus, want %.0fus +/- 5%%", q, got, wantUs)
		}
	}
	check(0.50, 500)
	check(0.90, 900)
	check(0.99, 990)
	if h.quantile(1) < h.quantile(0.999) {
		t.Fatal("quantiles not monotone")
	}
	if mean := h.mean() / 1e3; math.Abs(mean-500.5) > 1 {
		t.Fatalf("mean = %.1fus, want 500.5us", mean)
	}
}

// TestRejectsBadConfig covers the argument guards.
func TestRejectsBadConfig(t *testing.T) {
	if _, err := runLoad(context.Background(), genConfig{Rate: 0, Vertices: 10}); err == nil {
		t.Fatal("rate 0 accepted")
	}
	if _, err := runLoad(context.Background(), genConfig{Rate: 1, Vertices: 1}); err == nil {
		t.Fatal("1-vertex world accepted")
	}
}
