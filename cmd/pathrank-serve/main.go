// Command pathrank-serve exposes a trained PathRank artifact as an online
// ranking service over HTTP, optionally running the live pipeline: GPS
// trajectory ingestion, incremental retraining, and hot model swaps.
//
// It loads an artifact bundle (written by pathrank-train -artifact or
// pathrank.SaveArtifactFile) at startup and answers ranking queries until
// terminated, draining in-flight requests on SIGINT/SIGTERM:
//
//	pathrank-serve -artifact model.prart -addr :8080
//
// With -retrain-interval the server becomes self-improving: ingested
// trajectories are map-matched in the background, the model is fine-tuned
// on the accumulated window, and each new generation is written back to
// the artifact path and hot-swapped in with zero downtime:
//
//	pathrank-serve -artifact model.prart -retrain-interval 5m -retrain-min 32
//
// API:
//
//	POST /v2/rank    {"src": 12, "dst": 431, "k": 8, "strategy": "dtkdi", "timeout_ms": 200}
//	                 or a batch: {"queries": [{...}, ...]} -> per-item results/errors
//	POST /v1/ingest  {"records": [{"lon": 9.91, "lat": 57.04, "t": 0}, ...]} -> 202
//	POST /v1/reload  {"artifact": "other.prart"}  (empty body = configured path)
//	GET  /v1/provenance        Merkle commitments of the serving generation + WAL health
//	GET  /v1/provenance?seq=N  inclusion proof for ingested trajectory N
//	GET  /healthz    liveness, artifact shape, fingerprint, lineage, provenance roots
//	GET  /metrics    Prometheus text format (latency histograms, cache, swaps, retrains, WAL)
//
// With -wal-dir the live pipeline becomes durable: every accepted
// trajectory is logged before it can influence training, the observation
// window survives restarts, and any logged generation can be reproduced
// bit-for-bit with pathrank-train -replay. -wal-fsync trades ingest
// latency for crash durability (always | batch | interval).
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
// graph and CH arrays are used in place, making cold start O(open). The
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
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
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
	"pathrank/internal/stream"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pathrank-serve: ")

	artifactPath := flag.String("artifact", "model.prart", "trained artifact bundle")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	cacheSize := flag.Int("cache", 4096, "LRU result-cache entries (negative disables)")
	maxK := flag.Int("max-k", 32, "largest per-request candidate-set override")
	maxBatch := flag.Int("max-batch", 64, "largest /v2/rank batch in queries")
	maxInFlight := flag.Int("max-inflight", 0, "concurrent rank-request cap; excess sheds with 503 backlog (0 = unlimited)")
	maxTimeout := flag.Duration("max-timeout", 30*time.Second, "cap on per-request timeout_ms deadlines")
	engine := flag.String("engine", "ch", "shortest-path engine for candidate generation: ch, alt or dijkstra")
	drain := flag.Duration("drain-timeout", 5*time.Second, "graceful-shutdown drain timeout (every role)")
	watch := flag.Duration("watch", 0, "artifact-file watch interval (0 disables the watcher)")
	canaryQueries := flag.Int("canary-queries", 8, "golden queries the canary gate scores before publishing a swap (0 disables the gate)")
	canaryDivergence := flag.Float64("canary-divergence", 0, "max rank divergence vs the live snapshot before a swap is refused (0 = default 0.9)")
	ingestQueue := flag.Int("ingest-queue", 256, "bounded ingest queue size in trajectories")
	ingestWorkers := flag.Int("ingest-workers", 2, "map-matching workers")
	ingestMaxRecords := flag.Int("ingest-max-records", 20000, "max GPS records per ingested trajectory")
	retrainEvery := flag.Duration("retrain-interval", 0, "incremental retrain cadence (0 disables the live loop)")
	retrainMin := flag.Int("retrain-min", 16, "new observations required before a periodic retrain")
	retrainWindow := flag.Int("retrain-window", 1024, "observation window size in matched paths")
	retrainEpochs := flag.Int("retrain-epochs", 3, "fine-tune epochs per retrain")
	retrainLR := flag.Float64("retrain-lr", 0.001, "fine-tune learning rate")
	retrainSeed := flag.Int64("retrain-seed", 1, "base seed for deterministic incremental training")
	walDir := flag.String("wal-dir", "", "trajectory write-ahead-log directory (enables durable ingest + deterministic replay)")
	walFsync := flag.String("wal-fsync", "batch", "WAL fsync policy: always (every record), batch (retrain boundaries), interval")
	walSyncEvery := flag.Duration("wal-sync-interval", 200*time.Millisecond, "fsync cadence for -wal-fsync interval")
	walSegBytes := flag.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
	walRetain := flag.Int("wal-retain", 0, "sealed WAL segments to keep (0 keeps all; pruning limits replay depth)")
	bundleDir := flag.String("bundle", "", "partitioned bundle directory from pathrank-train -partition (for -shard and -router)")
	shardIdx := flag.Int("shard", -1, "serve shard N of the -bundle as a shard worker (adds the /shard/* sub-query endpoints)")
	routerMode := flag.Bool("router", false, "run the fan-out router over the -bundle's shard map; requires -shards")
	shardURLs := flag.String("shards", "", "comma-separated shard worker base URLs in shard order (router mode)")
	useMmap := flag.Bool("mmap", false, "memory-map the artifact instead of reading and verifying it on the heap (O(open) cold start)")
	hedgeAfter := flag.Duration("hedge-after", 150*time.Millisecond, "router: duplicate a shard call unanswered for this long (negative disables hedging)")
	flag.Parse()

	// Fault injection for fire drills: PATHRANK_FAULTS holds a fault.ParseSpec
	// schedule, PATHRANK_FAULT_SEED the deterministic seed. Off (a nil
	// pointer check on every site) unless explicitly set.
	if spec := os.Getenv("PATHRANK_FAULTS"); spec != "" {
		var seed int64 = 1
		if v := os.Getenv("PATHRANK_FAULT_SEED"); v != "" {
			s, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				log.Fatalf("PATHRANK_FAULT_SEED: %v", err)
			}
			seed = s
		}
		plan, err := fault.ParseSpec(spec, seed)
		if err != nil {
			log.Fatalf("PATHRANK_FAULTS: %v", err)
		}
		fault.Enable(plan)
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
		if *retrainEvery > 0 || *walDir != "" {
			log.Fatal("-shard is incompatible with -retrain-interval/-wal-dir: every worker must keep serving the bundle's model, a shard retraining alone would fork the fingerprint")
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
	prepNote := "no prep embedded (preprocessing on demand)"
	if art.Prep != nil {
		prepNote = "prep embedded (cold start skips preprocessing)"
	}
	log.Printf("loaded %s in %v: %d vertices, %d edges, %d params, strategy %s k=%d, gen %d fingerprint %.12s, engine %s, %s",
		*artifactPath, time.Since(start).Round(time.Millisecond),
		art.Graph.NumVertices(), art.Graph.NumEdges(), art.Model.NumParams(),
		art.Candidates.Strategy, art.Candidates.K, art.Lineage.Generation, fpHex, *engine, prepNote)

	// One registry for the whole process: the server and the live pipeline
	// both register on it, so GET /metrics is the single scrape surface.
	registry := obsv.NewRegistry()

	cfg := serve.Config{
		Metrics:             registry,
		CacheSize:           *cacheSize,
		MaxK:                *maxK,
		MaxBatch:            *maxBatch,
		MaxInFlight:         *maxInFlight,
		MaxTimeout:          *maxTimeout,
		Engine:              *engine,
		ArtifactPath:        *artifactPath,
		WatchInterval:       *watch,
		CanaryQueries:       *canaryQueries,
		CanaryMaxDivergence: *canaryDivergence,
		MaxIngestRecords:    *ingestMaxRecords,
		Logf:                log.Printf,
	}

	var srv *serve.Server
	var svc *stream.Service
	// The live pipeline runs when periodic retraining is requested, or when
	// a WAL directory is given (durable ingest with manual/replayed
	// retraining still wants trajectories logged).
	if *retrainEvery > 0 || *walDir != "" {
		svc, err = stream.New(art, stream.Config{
			QueueSize:       *ingestQueue,
			Workers:         *ingestWorkers,
			Window:          *retrainWindow,
			MinObservations: *retrainMin,
			Interval:        *retrainEvery,
			Engine:          *engine,
			Train: pathrank.TrainConfig{
				Epochs: *retrainEpochs, LR: *retrainLR, ClipNorm: 5, Seed: *retrainSeed,
			},
			ArtifactPath:    *artifactPath,
			WALDir:          *walDir,
			WALFsync:        *walFsync,
			WALSyncInterval: *walSyncEvery,
			WALSegmentBytes: *walSegBytes,
			WALRetain:       *walRetain,
			Metrics:         registry,
			Publish: func(a *pathrank.Artifact) error {
				_, err := srv.Swap(a)
				return err
			},
			Logf: log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg.Ingest = svc
		cfg.Provenance = svc
		cfg.Pipeline = svc
	}

	srv, err = serve.New(art, cfg)
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
	var svcDone chan struct{}
	if svc != nil {
		// Started only after srv exists: the publish hook swaps through it.
		// The retrainer publishes swaps directly, so the file watcher is
		// only needed for artifacts replaced by external tooling.
		svcDone = make(chan struct{})
		go func() {
			defer close(svcDone)
			_ = svc.Run(ctx)
		}()
	}
	err = api.ListenAndServe(ctx, *addr, handler, *drain, func(a net.Addr) {
		log.Printf("listening on %s", a)
	})
	if err != nil {
		log.Fatal(err)
	}
	// Shutdown order: the HTTP server has drained (no new ingest), so the
	// pipeline workers can finish their queue items; only once they have
	// stopped is the WAL closed — Close flushes the unsynced tail, and no
	// append may race it.
	if svc != nil {
		<-svcDone
		if err := svc.Close(); err != nil {
			log.Printf("close pipeline: %v", err)
		} else {
			log.Printf("pipeline stopped, WAL flushed")
		}
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
