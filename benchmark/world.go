package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"pathrank/internal/dataset"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/router"
	"pathrank/internal/serve"
	"pathrank/internal/shardserve"
	"pathrank/internal/spath"
)

// The served world is the same for every workload and every seed: the
// workload seed only chooses the requests sent to it.
const (
	worldSeed  = 1
	gridSide   = 56 // 56x56 jittered grid plus the motorway ring, ~3.1k vertices
	shardParts = 4
)

// setupTimes is how long each stage of one set-up took, in seconds.
type setupTimes struct {
	BuildPrep, ArtifactSave, ArtifactLoad, ServeNew float64
	BuildBundle                                     float64 // sharded only
	Total                                           float64
}

// world is one served deployment plus what the oracle and the traced
// replay need to call the layers directly.
type world struct {
	dir     string
	heap    *pathrank.Artifact // as built, never saved: the oracle's artifact
	mapped  *pathrank.Artifact // what the server serves
	server  *serve.Server
	handler http.Handler // the public /v2/rank surface under test
	times   setupTimes
	chShort int

	// Sharded tier; nil for single-server workloads.
	shardMap   *partition.ShardMap
	bundle     *partition.Manifest
	shardHeap  []*pathrank.Artifact
	shardArts  []*pathrank.Artifact
	shardSrvs  []*serve.Server
	shardHTTP  []*httptest.Server
	shardSpans *spanTap
}

func worldGraph() (*roadnet.Graph, error) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols, cfg.Seed = gridSide, gridSide, worldSeed
	return roadnet.Generate(cfg)
}

// buildWorld runs one full set-up under dir: generate → preprocess → save
// → mapped load → serve.New, and for the sharded tier partition → four
// shard workers on loopback → router. cacheSize follows serve.Config (0 is
// the default cache, negative turns it off).
func buildWorld(dir string, cacheSize int, sharded bool) (*world, error) {
	start := time.Now()
	w := &world{dir: dir}
	ok := false
	defer func() {
		if !ok {
			w.close()
		}
	}()

	g, err := worldGraph()
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	t := time.Now()
	prep := spath.BuildPrep(g, spath.PrepConfig{})
	w.times.BuildPrep = time.Since(t).Seconds()
	w.chShort = prep.CH.NumShortcuts()
	model, err := pathrank.New(g.NumVertices(), pathrank.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("new model: %w", err)
	}
	w.heap = &pathrank.Artifact{
		Graph: g, Model: model, Prep: prep,
		Candidates: dataset.Config{Strategy: dataset.DTkDI, K: 5, Threshold: 0.8},
	}

	path := filepath.Join(dir, "world.prart")
	t = time.Now()
	if err := pathrank.SaveArtifactV3File(path, w.heap); err != nil {
		return nil, fmt.Errorf("save artifact: %w", err)
	}
	w.times.ArtifactSave = time.Since(t).Seconds()
	t = time.Now()
	if w.mapped, err = pathrank.LoadArtifactFileMapped(path); err != nil {
		return nil, fmt.Errorf("load artifact: %w", err)
	}
	w.times.ArtifactLoad = time.Since(t).Seconds()
	t = time.Now()
	if w.server, err = serve.New(w.mapped, serve.Config{CacheSize: cacheSize, Engine: "ch"}); err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	w.times.ServeNew = time.Since(t).Seconds()
	w.handler = w.server.Handler()

	if sharded {
		if err := w.buildShards(); err != nil {
			return nil, err
		}
	}
	w.times.Total = time.Since(start).Seconds()
	ok = true
	return w, nil
}

func (w *world) buildShards() error {
	bundle := filepath.Join(w.dir, "bundle")
	t := time.Now()
	var err error
	if w.bundle, err = partition.BuildBundle(w.heap, bundle, shardParts, nil); err != nil {
		return fmt.Errorf("build bundle: %w", err)
	}
	w.times.BuildBundle = time.Since(t).Seconds()
	w.shardSpans = &spanTap{}
	urls := make([]string, shardParts)
	for i := 0; i < shardParts; i++ {
		file := filepath.Join(bundle, partition.ShardArtifactName(i))
		art, err := pathrank.LoadArtifactFileMapped(file)
		if err != nil {
			return fmt.Errorf("load shard %d: %w", i, err)
		}
		w.shardArts = append(w.shardArts, art)
		srv, err := serve.New(art, serve.Config{CacheSize: -1, Engine: "ch"})
		if err != nil {
			return fmt.Errorf("shard %d serve.New: %w", i, err)
		}
		w.shardSrvs = append(w.shardSrvs, srv)
		ss, err := shardserve.New(srv)
		if err != nil {
			return fmt.Errorf("shard %d worker: %w", i, err)
		}
		ts := httptest.NewServer(w.shardSpans.wrap(ss.Handler()))
		w.shardHTTP = append(w.shardHTTP, ts)
		urls[i] = ts.URL
	}
	if w.shardMap, err = partition.LoadShardMapFile(bundle); err != nil {
		return fmt.Errorf("load shard map: %w", err)
	}
	// Hedging duplicates a slow call, which would make the work done depend
	// on how noisy the machine is.
	rt, err := router.New(w.shardMap, router.Config{Shards: urls, HedgeAfter: -1})
	if err != nil {
		return fmt.Errorf("router.New: %w", err)
	}
	w.handler = rt.Handler()
	return nil
}

// loadShardHeaps loads every shard artifact onto the heap for the oracle: a
// co-resident query is answered on the owning shard's induced subgraph, so
// that is what the plain pipeline must run on too.
func (w *world) loadShardHeaps() error {
	for i := 0; i < shardParts; i++ {
		art, err := pathrank.LoadArtifactFile(filepath.Join(w.dir, "bundle", partition.ShardArtifactName(i)))
		if err != nil {
			return fmt.Errorf("oracle: load shard %d: %w", i, err)
		}
		w.shardHeap = append(w.shardHeap, art)
	}
	return nil
}

func (w *world) close() {
	for _, ts := range w.shardHTTP {
		ts.Close()
	}
	for _, s := range w.shardSrvs {
		s.Close()
	}
	if w.server != nil {
		w.server.Close()
	}
	for _, a := range w.shardArts {
		_ = a.Close() // unmapping a file this run wrote; nothing to recover
	}
	if w.mapped != nil {
		_ = w.mapped.Close()
	}
	_ = os.RemoveAll(w.dir) // scratch files; a leftover is harmless and ignored by git
}
