// Command pathrank-load is an open-loop load generator for a running
// pathrank-serve instance. It schedules request arrivals from a seeded
// Poisson process at a fixed target rate — server latency never feeds
// back into the arrival clock, so the measured tail is free of
// coordinated omission — and reports throughput plus p50/p95/p99/p999
// latency from a log-bucketed HDR-style histogram.
//
// The request mix is configurable: OD pairs sampled uniformly from the
// serving graph, per-request k and candidate strategy drawn from the
// given lists, and a share of /v2/rank batches. A given -seed always
// replays the same sequence.
//
//	pathrank-load -addr http://localhost:8080 -rate 200 -duration 30s
//	pathrank-load -rate 500 -strategy tkdi,dtkdi -batch-ratio 0.2 -json
//
// With -json the report is a single machine-readable JSON object on
// stdout (scripts/paper consumes it); the human-readable summary goes to
// stderr either way.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pathrank-load: ")

	addr := flag.String("addr", "http://localhost:8080", "base URL of the pathrank-serve instance")
	rate := flag.Float64("rate", 100, "target arrival rate in requests/second")
	duration := flag.Duration("duration", 10*time.Second, "load duration")
	seed := flag.Int64("seed", 1, "seed for arrivals and request mix (same seed = same sequence)")
	vertices := flag.Int64("vertices", 0, "OD sample space (0 = read the vertex count from /healthz)")
	k := flag.Int("k", 0, "per-request candidate-set size (0 = server default)")
	strategies := flag.String("strategy", "", "comma-separated candidate strategies to mix (empty = server default)")
	batchRatio := flag.Float64("batch-ratio", 0, "fraction of v2 requests sent as batches")
	batchSize := flag.Int("batch-size", 8, "queries per batch request")
	explainRatio := flag.Float64("explain-ratio", 0, "fraction of single v2 requests sent with explain=true; against a sharded router the report then includes the per-shard latency breakdown")
	timeout := flag.Duration("timeout", 2*time.Second, "per-request deadline (propagated to the server)")
	maxInFlight := flag.Int("max-inflight", 256, "open-request cap; arrivals past it are dropped, not delayed")
	jsonOut := flag.Bool("json", false, "emit the report as JSON on stdout")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	cfg := genConfig{
		BaseURL:      strings.TrimRight(*addr, "/"),
		Rate:         *rate,
		Duration:     *duration,
		Seed:         *seed,
		Vertices:     *vertices,
		K:            *k,
		Strategies:   splitList(*strategies),
		BatchRatio:   *batchRatio,
		BatchSize:    *batchSize,
		ExplainRatio: *explainRatio,
		Timeout:      *timeout,
		MaxInFlight:  *maxInFlight,
	}
	if cfg.Vertices == 0 {
		n, err := fetchVertices(ctx, cfg.BaseURL)
		if err != nil {
			log.Fatalf("read vertex count from %s/healthz: %v (or pass -vertices)", cfg.BaseURL, err)
		}
		cfg.Vertices = n
	}

	log.Printf("driving %s: %.1f req/s for %v over %d vertices (seed %d)",
		cfg.BaseURL, cfg.Rate, cfg.Duration, cfg.Vertices, cfg.Seed)
	rep, err := runLoad(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprint(os.Stderr, rep.text())
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
	}
}

// fetchVertices reads the serving graph's vertex count from /healthz.
func fetchVertices(ctx context.Context, baseURL string) (int64, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var health struct {
		Vertices int64 `json:"vertices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return 0, err
	}
	if health.Vertices < 2 {
		return 0, fmt.Errorf("server reports %d vertices", health.Vertices)
	}
	return health.Vertices, nil
}

// splitList parses a comma-separated flag value, dropping empty entries.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
