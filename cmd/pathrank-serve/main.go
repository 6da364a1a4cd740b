// Command pathrank-serve exposes a trained PathRank artifact as an online
// ranking service over HTTP.
//
// It loads an artifact bundle (written by pathrank-train -artifact or
// pathrank.SaveArtifactFile) at startup and answers ranking queries until
// terminated, draining in-flight requests on SIGINT/SIGTERM:
//
//	pathrank-serve -artifact model.prart -addr :8080
//
// Every role is a reader of model generations. A new one arrives only as a
// file: with -watch the server polls the artifact path and hot-swaps each
// generation the trainer (pathrank-train's live mode) renames into place,
// through the canary gate, with zero downtime:
//
//	pathrank-serve -artifact model.prart -watch 2s
//
// API:
//
//	POST /v2/rank    {"src": 12, "dst": 431, "k": 8, "strategy": "dtkdi", "timeout_ms": 200}
//	                 or a batch: {"queries": [{...}, ...]} -> per-item results/errors
//	POST /v1/reload  {"artifact": "other.prart"}  (empty body = configured path)
//	GET  /healthz    liveness, artifact shape, fingerprint, lineage, provenance roots
//	GET  /metrics    Prometheus text format (latency histograms, cache, swaps)
//
// /v2/rank errors are typed ({"error": {"code": "unroutable", ...}}): 400
// invalid, 404 unroutable, 408 canceled, 504 deadline, 503 backlog with
// Retry-After. The pathrank.Client SDK (and pathrank-rank -server) speak
// this API.
//
// Sharded deployments (see docs/SHARDING.md) run one process per shard of
// a partitioned bundle (pathrank-train -partition) plus one router:
//
//	pathrank-serve -bundle bundle/ -shard 0 -addr :8081
//	pathrank-serve -bundle bundle/ -shard 1 -addr :8082
//	pathrank-serve -bundle bundle/ -router -shards http://localhost:8081,http://localhost:8082
//
// A shard worker is this same server over the shard's artifact, plus the
// /shard/* sub-query endpoints the router stitches cross-shard answers
// from. The router speaks plain /v2/rank, so clients need no changes.
// -mmap memory-maps the artifact instead of reading it onto the heap: the
// graph's arrays are used in place, making cold start O(open). The
// heap load verifies the whole file (checksum, raw digest, array
// contents); the mapped open verifies the checksummed payload and trusts
// the arrays.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/fault"
	"pathrank/internal/obsv"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/router"
	"pathrank/internal/serve"
	"pathrank/internal/shardserve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pathrank-serve: ")

	artifactPath := flag.String("artifact", "model.prart", "trained artifact bundle")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	cacheSize := flag.Int("cache", 4096, "result-cache entries, W-TinyLFU (negative disables)")
	maxK := flag.Int("max-k", 32, "largest per-request candidate-set override")
	maxBatch := flag.Int("max-batch", 64, "largest /v2/rank batch in queries")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent rank-request cap; excess sheds with 503 backlog (0 = unlimited)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on per-request timeout_ms deadlines")
	drain := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain timeout (every role)")
	watch := flag.Duration("watch", 0, "artifact-file watch interval: how new generations from pathrank-train's live mode arrive (0 disables the watcher)")
	canaryQueries := flag.Int("canary-queries", 8, "golden queries the canary gate scores before publishing a swap (0 disables the gate)")
	canaryDivergence := flag.Float64("canary-divergence", 0, "max rank divergence vs the live snapshot before a swap is refused (0 = default 0.9)")
	bundleDir := flag.String("bundle", "", "partitioned bundle directory from pathrank-train -partition (for -shard and -router)")
	shardIdx := flag.Int("shard", -1, "serve shard N of the -bundle as a shard worker (adds the /shard/* sub-query endpoints)")
	routerMode := flag.Bool("router", false, "run the fan-out router over the -bundle's shard map; requires -shards")
	shardURLs := flag.String("shards", "", "comma-separated shard worker base URLs in shard order (router mode)")
	useMmap := flag.Bool("mmap", false, "memory-map the artifact instead of reading and verifying it on the heap (O(open) cold start)")
	hedgeAfter := flag.Duration("hedge-after", 150*time.Millisecond, "router: duplicate a shard call unanswered for this long (negative disables hedging)")
	flag.Parse()

	// Fault injection for fire drills: off (a nil pointer check on every
	// site) unless PATHRANK_FAULTS is set.
	if plan, seed, err := fault.EnableFromEnv(); err != nil {
		log.Fatal(err)
	} else if plan != nil {
		log.Printf("WARNING: fault injection ACTIVE (seed %d): %s — do not run this configuration in production", seed, plan)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *routerMode {
		if err := runRouter(ctx, *bundleDir, *shardURLs, *addr, *drain, *hedgeAfter, *maxK, *maxBatch, *maxTimeout); err != nil {
			log.Fatal(err)
		}
		fmt.Println("shut down cleanly")
		return
	}
	if *shardIdx >= 0 {
		if *bundleDir == "" {
			log.Fatal("-shard requires -bundle")
		}
		*artifactPath = filepath.Join(*bundleDir, partition.ShardArtifactName(*shardIdx))
	}

	start := time.Now()
	loadArtifact := pathrank.LoadArtifactFile
	if *useMmap {
		loadArtifact = pathrank.LoadArtifactFileMapped
	}
	art, err := loadArtifact(*artifactPath)
	if err != nil {
		log.Fatal(err)
	}
	fpHex, err := art.Model.FingerprintHex()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %s in %v: %d vertices, %d edges, %d params, strategy %s k=%d, gen %d fingerprint %.12s",
		*artifactPath, time.Since(start).Round(time.Millisecond),
		art.Graph.NumVertices(), art.Graph.NumEdges(), art.Model.NumParams(),
		art.Candidates.Strategy, art.Candidates.K, art.Lineage.Generation, fpHex)

	srv, err := serve.New(art, serve.Config{
		CacheSize:           *cacheSize,
		MaxK:                *maxK,
		MaxBatch:            *maxBatch,
		MaxInFlight:         *maxInFlight,
		MaxTimeout:          *maxTimeout,
		ArtifactPath:        *artifactPath,
		WatchInterval:       *watch,
		CanaryQueries:       *canaryQueries,
		CanaryMaxDivergence: *canaryDivergence,
		Logf:                log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	handler := srv.Handler()
	if *shardIdx >= 0 {
		ss, err := shardserve.New(srv)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("shard worker %d/%d: %d owned boundary vertices",
			art.Shard.Index, art.Shard.Parts, len(art.Shard.Boundary))
		handler = ss.Handler()
	}
	go srv.WatchArtifact(ctx) // returns at once unless -watch is set
	err = api.ListenAndServe(ctx, *addr, handler, *drain, func(a net.Addr) {
		log.Printf("listening on %s", a)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("shut down cleanly")
}

// runRouter implements -router: load the bundle's shard map and fan
// /v2/rank out over the shard workers until ctx is canceled.
func runRouter(ctx context.Context, bundleDir, shardURLs, addr string, drain, hedgeAfter time.Duration, maxK, maxBatch int, maxTimeout time.Duration) error {
	if bundleDir == "" {
		return fmt.Errorf("-router requires -bundle")
	}
	urls := splitList(shardURLs)
	if len(urls) == 0 {
		return fmt.Errorf("-router requires -shards (comma-separated worker URLs in shard order)")
	}
	start := time.Now()
	sm, err := partition.LoadShardMapFile(bundleDir)
	if err != nil {
		return err
	}
	log.Printf("loaded shard map in %v: %d shards, %d vertices, %d boundary vertices, %d cut edges, fingerprint %.12s",
		time.Since(start).Round(time.Millisecond), sm.Parts, sm.NumVertices,
		len(sm.GlobalBoundary()), len(sm.CutEdges), sm.Fingerprint)
	rt, err := router.New(sm, router.Config{
		Shards: urls, HedgeAfter: hedgeAfter,
		MaxK: maxK, MaxBatch: maxBatch, MaxTimeout: maxTimeout,
		Metrics: obsv.NewRegistry(), Logf: log.Printf,
	})
	if err != nil {
		return err
	}
	go rt.PollHealth(ctx)
	return api.ListenAndServe(ctx, addr, rt.Handler(), drain, func(a net.Addr) {
		log.Printf("router listening on %s over %d shards", a, len(urls))
	})
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
