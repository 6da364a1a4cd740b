package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"pathrank/internal/pathrank"
	"pathrank/internal/roadnet"
)

// snapshot is one immutable serving state: an artifact, its ranker, and the
// caching machinery bound to that artifact's model. The ranker is the
// artifact's own (Artifact.NewRanker); it builds each metric's weight table
// on that metric's first query, and the server never preprocesses. The server holds the current snapshot in an
// atomic pointer; a hot swap installs a new snapshot while requests already
// running against the old one finish undisturbed (they keep their pointer;
// the garbage collector retires the old state).
type snapshot struct {
	art    *pathrank.Artifact
	ranker *pathrank.Ranker
	cache  *resultCache
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
// difference fully invalidates the cache (a fresh, empty one, its
// frequency sketch included; a kept cache keeps its sketch); in
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
	art.Model.Prepare()
	if prev != nil && prev.fp == fp && prev.graph == gd &&
		prev.art.Candidates == art.Candidates && prev.cache != nil {
		p.cache = prev.cache
	} else {
		p.cache = newResultCache(cfg.CacheSize)
	}
	return p, nil
}
