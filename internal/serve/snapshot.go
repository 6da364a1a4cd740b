package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// snapshot is one immutable serving state: an artifact, its ranker, and the
// caching machinery bound to that artifact's model. The server holds the
// current snapshot in an atomic pointer; a hot swap installs a new snapshot
// while requests already running against the old one finish undisturbed
// (they keep their pointer; the garbage collector retires the old state).
type snapshot struct {
	art    *pathrank.Artifact
	ranker *pathrank.Ranker
	engine spath.Engine
	cache  *lruCache
	flight *flightGroup
	fp     [sha256.Size]byte
	fpHex  string
	graph  [sha256.Size]byte // digest of the serialized road network
	loaded time.Time
}

// graphDigest hashes the graph's serialized form. Gob encoding is
// deterministic for a given structure, so two graphs digest equal iff
// their vertex/edge data is identical — which is what cache reuse across
// a swap requires (cached paths carry edge IDs resolved against the
// serving graph).
func graphDigest(g *roadnet.Graph) ([sha256.Size]byte, error) {
	h := sha256.New()
	if err := g.Save(h); err != nil {
		return [sha256.Size]byte{}, err
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// newSnapshot builds the serving state for art. When prev is non-nil, the
// new snapshot reuses prev's result cache iff the model fingerprint,
// candidate configuration, AND road network are identical — in that case
// every cached ranking is bit-identical to what the new artifact would
// compute, so dropping the cache would only cost recomputation. Any
// difference fully invalidates the cache (a fresh, empty LRU); in
// particular a changed graph must invalidate even under identical weights,
// because cached paths carry edge IDs and geometry of the old network.
//
// The model's inference plan is built here, so New, the canary and Swap pay
// for it and no request does.
func newSnapshot(art *pathrank.Artifact, cfg Config, prev *snapshot) (*snapshot, error) {
	if art == nil || art.Graph == nil || art.Model == nil {
		return nil, fmt.Errorf("serve: artifact needs a graph and a model")
	}
	fp, err := art.Model.Fingerprint()
	if err != nil {
		return nil, fmt.Errorf("serve: fingerprint artifact: %w", err)
	}
	gd, err := graphDigest(art.Graph)
	if err != nil {
		return nil, fmt.Errorf("serve: digest artifact graph: %w", err)
	}
	p := &snapshot{
		art:    art,
		ranker: art.NewRanker(),
		flight: newFlightGroup(),
		fp:     fp,
		fpHex:  hex.EncodeToString(fp[:]),
		graph:  gd,
		loaded: time.Now(),
	}
	p.engine = buildEngine(art, cfg, gd, prev)
	p.ranker.Engine = p.engine
	art.Model.Prepare()
	if prev != nil && prev.fp == fp && prev.graph == gd &&
		prev.art.Candidates == art.Candidates && prev.cache != nil {
		p.cache = prev.cache
	} else {
		p.cache = newLRUCache(cfg.CacheSize)
	}
	return p, nil
}

// buildEngine resolves the snapshot's shortest-path engine with, in order
// of preference: the structure persisted in the artifact (zero cold-start
// preprocessing), the previous snapshot's engine when the road network is
// digest-identical (an incremental retrain swaps in new weights on the same
// network — rebuilding the hierarchy would waste the swap), and finally an
// on-demand build for artifacts that predate the prep section.
func buildEngine(art *pathrank.Artifact, cfg Config, gd [sha256.Size]byte, prev *snapshot) spath.Engine {
	kind := cfg.engineKind()
	if e := art.Prep.Engine(kind, art.Graph); e != nil {
		return e
	}
	if prev != nil && prev.graph == gd && prev.engine != nil && prev.engine.Kind() == kind {
		// Digest-equal graphs are structurally identical, so the previous
		// engine's distances and edge IDs stay valid for the new artifact.
		return prev.engine
	}
	return spath.NewEngine(kind, art.Graph, spath.ByLength)
}
