// Command pathrank-train runs the full PathRank training pipeline on a
// generated network and trip log: node2vec embedding, candidate generation
// (TkDI or D-TkDI), training, evaluation on a held-out split, and, with
// -artifact, the serving artifact.
//
// Usage:
//
//	pathrank-train -net net.gob -trips trips.gob -m 64 -strategy d-tkdi -artifact model.prart
//
// With -retrain-interval or -wal-dir it runs the live mode instead: the
// trainer, the one process that writes model generations. It loads the
// -artifact, accepts GPS trajectories over HTTP on -addr, map-matches them,
// fine-tunes on the accumulated window, and publishes each new generation
// by renaming it into place at -artifact, where every pathrank-serve
// started with -watch picks it up through its canary gate:
//
//	pathrank-train -artifact model.prart -wal-dir wal/ -retrain-interval 5m -addr :8081
//
// Live mode's API (errors are {"error": "..."} bodies):
//
//	POST /v1/ingest  {"records": [{"lon": 9.91, "lat": 57.04, "t": 0}, ...]} -> 202
//	GET  /v1/provenance        Merkle commitments of the newest generation + WAL health
//	GET  /v1/provenance?seq=N  inclusion proof for ingested trajectory N
//	GET  /healthz    pipeline health (ready or degraded), generation, WAL
//	GET  /metrics    Prometheus text format (observations, retrains, WAL)
//
// With -wal-dir every accepted trajectory is logged before it can
// influence training, the observation window survives restarts, a restart
// re-derives and publishes any generation the log committed beyond
// -artifact, and any logged generation can be reproduced bit-for-bit with
// -replay. -wal-fsync trades ingest latency for crash durability
// (always | batch | interval).
//
// With -replay it re-executes the retrains recorded in such a trajectory
// write-ahead log against a base artifact, verifying that every
// reconstructed generation matches the model fingerprint and Merkle roots
// the live run committed — exiting non-zero on any divergence:
//
//	pathrank-train -replay wal/ -base base.prart -artifact rebuilt.prart
//
// With -partition P it partitions an artifact's road network into P
// shards and writes a complete sharded serving bundle — per-shard
// artifacts, the router's shard map with precomputed boundary
// distance tables, and a JSON manifest (see docs/SHARDING.md). Either
// standalone from an existing artifact, or straight after training:
//
//	pathrank-train -partition 4 -base model.prart -partition-out bundle/
//	pathrank-train -net net.gob -trips trips.gob -artifact model.prart -partition 4
//
// Every artifact it writes (-artifact, live mode, -replay, -resume,
// -partition) is in the one artifact format (internal/pathrank/artifact.go),
// which pathrank-serve can read onto the heap or open with -mmap, and is
// published by temp file + fsync + rename, so -artifact may name the file
// a live server is serving or has mapped.
package main

import (
	"bufio"
	"context"
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pathrank/internal/api"
	"pathrank/internal/dataset"
	"pathrank/internal/fault"
	"pathrank/internal/node2vec"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/stream"
	"pathrank/internal/traj"
)

// TripsFile mirrors the netgen output format.
type TripsFile struct {
	Trips []traj.Trip
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pathrank-train: ")
	// Fault injection for fire drills: off (a nil pointer check on every
	// site) unless PATHRANK_FAULTS is set.
	if plan, seed, err := fault.EnableFromEnv(); err != nil {
		log.Fatal(err)
	} else if plan != nil {
		log.Printf("WARNING: fault injection ACTIVE (seed %d): %s — do not run this configuration in production", seed, plan)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run parses args and runs the mode they select until it finishes or, in
// live mode, until ctx is canceled; onListen, when non-nil, receives live
// mode's bound address.
func run(ctx context.Context, args []string, onListen func(net.Addr)) error {
	fs := flag.NewFlagSet("pathrank-train", flag.ExitOnError)
	netPath := fs.String("net", "net.gob", "road network file from netgen")
	tripsPath := fs.String("trips", "trips.gob", "trip log file from netgen")
	m := fs.Int("m", 64, "embedding dimensionality M")
	hidden := fs.Int("hidden", 32, "GRU hidden size")
	strategy := fs.String("strategy", "d-tkdi", "candidate strategy: tkdi or d-tkdi")
	k := fs.Int("k", 5, "candidate-set size")
	threshold := fs.Float64("threshold", 0.8, "D-TkDI similarity threshold")
	variant := fs.String("variant", "a2", "embedding variant: a1 (frozen) or a2 (fine-tuned)")
	lambda := fs.Float64("lambda", 0, "multi-task auxiliary loss weight (0 = off)")
	epochs := fs.Int("epochs", 10, "training epochs")
	lr := fs.Float64("lr", 0.003, "Adam learning rate")
	testFrac := fs.Float64("test-frac", 0.25, "held-out trip fraction")
	seed := fs.Int64("seed", 1, "random seed")
	artifactOut := fs.String("artifact", "", "also write a complete serving artifact (network + model) to this path; in live mode, the artifact to start from and publish every generation to")
	resume := fs.String("resume", "", "warm-start from this artifact bundle instead of training from scratch (incremental fine-tune; ignores -net/-m/-hidden/-variant)")
	replay := fs.String("replay", "", "replay the trajectory WAL in this directory instead of training (requires -base)")
	replayBase := fs.String("base", "", "base artifact for -replay (the WAL's first generation's parent) or for standalone -partition")
	replayGen := fs.Int("replay-gen", 0, "stop the replay after this generation (0 = replay the whole log)")
	partitionP := fs.Int("partition", 0, "partition the artifact into this many shards and write a sharded serving bundle (0 = off)")
	partitionOut := fs.String("partition-out", "bundle", "output directory for the -partition bundle")
	addr := fs.String("addr", ":8081", "live mode: HTTP listen address of the trainer API")
	drain := fs.Duration("drain-timeout", 5*time.Second, "live mode: graceful-shutdown drain timeout")
	ingestQueue := fs.Int("ingest-queue", 256, "bounded ingest queue size in trajectories")
	ingestWorkers := fs.Int("ingest-workers", 2, "map-matching workers")
	ingestMaxRecords := fs.Int("ingest-max-records", 20000, "max GPS records per ingested trajectory")
	retrainEvery := fs.Duration("retrain-interval", 0, "incremental retrain cadence (0 disables the live loop)")
	retrainMin := fs.Int("retrain-min", 16, "new observations required before a periodic retrain")
	retrainWindow := fs.Int("retrain-window", 1024, "observation window size in matched paths")
	retrainEpochs := fs.Int("retrain-epochs", 3, "fine-tune epochs per retrain")
	retrainLR := fs.Float64("retrain-lr", 0.001, "fine-tune learning rate")
	retrainSeed := fs.Int64("retrain-seed", 1, "base seed for deterministic incremental training")
	walDir := fs.String("wal-dir", "", "trajectory write-ahead-log directory (enables durable ingest + deterministic replay)")
	walFsync := fs.String("wal-fsync", "batch", "WAL fsync policy: always (every record), batch (retrain boundaries), interval")
	walSyncEvery := fs.Duration("wal-sync-interval", 200*time.Millisecond, "fsync cadence for -wal-fsync interval")
	walSegBytes := fs.Int64("wal-segment-bytes", 4<<20, "WAL segment rotation threshold in bytes")
	walRetain := fs.Int("wal-retain", 0, "sealed WAL segments to keep (0 keeps all; pruning limits replay depth)")
	fs.Parse(args)

	if *replay != "" {
		return replayWAL(*replay, *replayBase, *replayGen, *artifactOut)
	}

	// Live mode: periodic retraining requested, or a WAL directory given
	// (durable ingest with manual or replayed retraining still wants
	// trajectories logged).
	if *retrainEvery > 0 || *walDir != "" {
		return runLive(ctx, *artifactOut, *addr, *drain, stream.Config{
			QueueSize:        *ingestQueue,
			Workers:          *ingestWorkers,
			MaxIngestRecords: *ingestMaxRecords,
			Window:           *retrainWindow,
			MinObservations:  *retrainMin,
			Interval:         *retrainEvery,
			Train: pathrank.TrainConfig{
				Epochs: *retrainEpochs, LR: *retrainLR, ClipNorm: 5, Seed: *retrainSeed,
			},
			WALDir:          *walDir,
			WALFsync:        *walFsync,
			WALSyncInterval: *walSyncEvery,
			WALSegmentBytes: *walSegBytes,
			WALRetain:       *walRetain,
		}, onListen)
	}

	// Standalone partitioning: shard an already-trained artifact without
	// re-running the pipeline.
	if *partitionP > 0 && *replayBase != "" {
		art, err := pathrank.LoadArtifactFile(*replayBase)
		if err != nil {
			return err
		}
		return partitionBundle(art, *partitionOut, *partitionP)
	}

	if *resume != "" {
		// -epochs/-lr default to the offline schedule, which is too hot for
		// a warm start. Unless the user set them explicitly, pass zero so
		// FineTune applies DefaultFineTuneConfig — the same settings the
		// streaming retrainer uses, keeping -resume its offline twin.
		ftEpochs, ftLR := 0, 0.0
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "epochs":
				ftEpochs = *epochs
			case "lr":
				ftLR = *lr
			}
		})
		return resumeTrain(*resume, *tripsPath, ftEpochs, ftLR, *seed, *artifactOut)
	}

	g, err := roadnet.LoadFile(*netPath)
	if err != nil {
		return err
	}
	trips, err := loadTrips(*tripsPath)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d vertices, %d edges, %d trips\n", g.NumVertices(), g.NumEdges(), len(trips))

	dcfg := dataset.Config{K: *k, Threshold: *threshold, IncludeTruth: true}
	switch strings.ToLower(*strategy) {
	case "tkdi":
		dcfg.Strategy = dataset.TkDI
	case "d-tkdi", "dtkdi":
		dcfg.Strategy = dataset.DTkDI
	default:
		return fmt.Errorf("unknown strategy %q (want tkdi or d-tkdi)", *strategy)
	}
	mcfg := pathrank.Config{
		EmbeddingDim: *m, Hidden: *hidden, Body: pathrank.GRUBody,
		MultiTaskLambda: *lambda, Seed: *seed,
	}
	switch strings.ToLower(*variant) {
	case "a1":
		mcfg.Variant = pathrank.PRA1
	case "a2":
		mcfg.Variant = pathrank.PRA2
	default:
		return fmt.Errorf("unknown variant %q (want a1 or a2)", *variant)
	}

	wc := node2vec.DefaultWalkConfig()
	wc.Seed = *seed + 1
	sc := node2vec.DefaultTrainConfig(*m)
	sc.Seed = *seed + 2

	start := time.Now()
	pipe, err := pathrank.BuildPipeline(g, trips, pathrank.PipelineConfig{
		Walk: wc, SGNS: sc, Data: dcfg, Model: mcfg,
		Train: pathrank.TrainConfig{
			Epochs: *epochs, LR: *lr, ClipNorm: 5, Seed: *seed + 3,
			Logf: func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) },
		},
		TestFrac: *testFrac, SplitSeed: *seed + 4,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trained %s %s M=%d in %v (%d params)\n",
		dcfg.Strategy, mcfg.Variant, *m, time.Since(start).Round(time.Second), pipe.Model.NumParams())
	fmt.Println("train:", pipe.Model.Evaluate(pipe.Train))
	fmt.Println("test: ", pipe.Model.Evaluate(pipe.Test))

	if *artifactOut != "" || *partitionP > 0 {
		art := &pathrank.Artifact{
			Graph:      g,
			Model:      pipe.Model,
			Candidates: dcfg,
			Lineage:    pathrank.Lineage{TrainedOn: len(pipe.Train), TotalObserved: len(pipe.Train), Note: "offline"},
		}
		if *artifactOut != "" {
			if err := pathrank.SaveArtifactFile(*artifactOut, art); err != nil {
				return err
			}
			fmt.Printf("artifact -> %s (serve with: pathrank-serve -artifact %s)\n", *artifactOut, *artifactOut)
		}
		if *partitionP > 0 {
			return partitionBundle(art, *partitionOut, *partitionP)
		}
	}
	return nil
}

// runLive implements the live mode: load the artifact at path, run the
// pipeline that publishes every generation back to it, and serve the
// trainer API on addr until ctx is canceled.
func runLive(ctx context.Context, path, addr string, drain time.Duration, cfg stream.Config, onListen func(net.Addr)) error {
	if path == "" {
		return fmt.Errorf("live mode (-retrain-interval/-wal-dir) needs -artifact: the artifact it starts from and publishes every generation to")
	}
	art, err := pathrank.LoadArtifactFile(path)
	if err != nil {
		return err
	}
	fp, err := art.Model.FingerprintHex()
	if err != nil {
		return err
	}
	log.Printf("live: loaded %s: gen %d fingerprint %.12s; every new generation is published to it", path, art.Lineage.Generation, fp)
	cfg.ArtifactPath = path
	cfg.Logf = log.Printf
	svc, err := stream.New(art, cfg)
	if err != nil {
		return err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		_ = svc.Run(runCtx)
	}()
	err = api.ListenAndServe(ctx, addr, svc.Handler(), drain, func(a net.Addr) {
		log.Printf("live: listening on %s", a)
		if onListen != nil {
			onListen(a)
		}
	})
	// Shutdown order: the HTTP server has drained (no new ingest), so the
	// pipeline workers can stop; only once they have is the WAL closed —
	// Close flushes the unsynced tail, and no append may race it.
	cancel()
	<-runDone
	if cerr := svc.Close(); cerr != nil {
		log.Printf("close pipeline: %v", cerr)
	} else {
		log.Printf("pipeline stopped, WAL flushed")
	}
	if err != nil {
		return err
	}
	fmt.Println("shut down cleanly")
	return nil
}

// partitionBundle implements -partition: shard the artifact's network and
// write the complete serving bundle.
func partitionBundle(art *pathrank.Artifact, dir string, parts int) error {
	start := time.Now()
	man, err := partition.BuildBundle(art, dir, parts, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fmt.Printf("bundle -> %s in %v: %d shards, %d boundary vertices, %d cut edges, imbalance %.3f\n",
		dir, time.Since(start).Round(time.Millisecond),
		man.Parts, man.BoundaryVertices, man.CutEdges, man.Imbalance)
	fmt.Printf("serve with: pathrank-serve -bundle %s -shard <i>  +  pathrank-serve -bundle %s -router -shards <urls>\n", dir, dir)
	return nil
}

// replayWAL implements -replay: deterministically reconstruct the model
// generations recorded in a trajectory WAL and verify them against the
// fingerprints and Merkle roots the live run committed.
func replayWAL(walDir, basePath string, targetGen int, artifactOut string) error {
	if basePath == "" {
		return fmt.Errorf("-replay requires -base <artifact> (the artifact the log's first generation was trained from)")
	}
	base, err := pathrank.LoadArtifactFile(basePath)
	if err != nil {
		return err
	}
	fmt.Printf("replaying %s from gen %d artifact %s\n", walDir, base.Lineage.Generation, basePath)
	start := time.Now()
	res, err := stream.Replay(walDir, base, targetGen, func(format string, args ...any) {
		fmt.Printf("  "+format+"\n", args...)
	})
	if err != nil {
		return err
	}
	fp, err := res.Artifact.Model.FingerprintHex()
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d generations (%d observations, %d markers skipped) in %v\n",
		res.Generations, res.Observations, res.SkippedMarkers, time.Since(start).Round(time.Millisecond))
	fmt.Printf("final: gen %d fingerprint %s\n", res.Artifact.Lineage.Generation, fp)

	if artifactOut != "" {
		if err := pathrank.SaveArtifactFile(artifactOut, res.Artifact); err != nil {
			return err
		}
		fmt.Printf("artifact -> %s\n", artifactOut)
	}
	if !res.Verified {
		for _, m := range res.Mismatches {
			fmt.Printf("MISMATCH: %s\n", m)
		}
		return fmt.Errorf("replay diverged from the live run in %d place(s): the WAL does not reproduce the committed generations", len(res.Mismatches))
	}
	fmt.Println("verified: every replayed generation matches its recorded fingerprint and Merkle roots bit-for-bit")
	return nil
}

// resumeTrain implements -resume: load an artifact, fine-tune its model on
// a new trip log (warm start) through the live loop's retrain step, and
// write the child generation — the offline twin of the streaming
// retrainer, provenance roots and all.
func resumeTrain(artPath, tripsPath string, epochs int, lr float64, seed int64, artifactOut string) error {
	art, err := pathrank.LoadArtifactFile(artPath)
	if err != nil {
		return err
	}
	trips, err := loadTrips(tripsPath)
	if err != nil {
		return err
	}
	fmt.Printf("resuming gen %d artifact: %d vertices, %d params, %d new trips\n",
		art.Lineage.Generation, art.Graph.NumVertices(), art.Model.NumParams(), len(trips))

	start := time.Now()
	// Zero Epochs/LR fall back to DefaultFineTuneConfig inside FineTune.
	next, err := stream.Retrain(art, trips, pathrank.TrainConfig{
		Epochs: epochs, LR: lr, ClipNorm: 5, Seed: seed,
		Logf: func(format string, args ...any) { fmt.Printf("  "+format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	next.Lineage.Note = "resume"
	fmt.Printf("fine-tuned on %d trips in %v (data root %.12s, chain root %.12s)\n",
		next.Lineage.TrainedOn, time.Since(start).Round(time.Second), next.Lineage.DataRoot, next.Lineage.ChainRoot)

	if artifactOut != "" {
		if err := pathrank.SaveArtifactFile(artifactOut, next); err != nil {
			return err
		}
		fmt.Printf("artifact -> %s (gen %d, parent %.12s)\n", artifactOut, next.Lineage.Generation, next.Lineage.Parent)
	}
	return nil
}

func loadTrips(path string) ([]traj.Trip, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var tf TripsFile
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&tf); err != nil {
		return nil, fmt.Errorf("decode trips: %w", err)
	}
	return tf.Trips, nil
}
