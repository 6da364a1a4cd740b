// Package chaos is the fault-injection test suite for the live
// ingest→retrain→publish→swap loop. The scenario tests (chaos_test.go)
// run a trainer (stream.Service) and a server (serve.Server watching the
// artifact file) side by side as pathrank-train's live mode and
// pathrank-serve -watch run, drive them with HTTP load, and use
// internal/fault plans to kill WAL writes, corrupt artifact bytes, and
// panic workers — asserting that the canary gate refuses bad artifacts
// without touching the trainer's chain, degraded mode loses nothing beyond
// its documented bound, and panic containment keeps ingest alive.
//
// The non-test code here is the corruption toolkit the scenarios (and
// the serve package's own canary tests) share. It deliberately imports
// only the artifact layer and node2vec's embedding type, never serve or
// stream, so any test package may use it without cycles.
package chaos

import (
	"fmt"
	"math"

	"pathrank/internal/node2vec"
	"pathrank/internal/pathrank"
)

// PoisonArtifact returns a new artifact sharing everything with art except
// the model: a clone of art's whose every embedding is NaN, one generation
// on. The model is "corrupt but loadable": its weights are valid float64s
// that round-trip Save/Load and the artifact's params digest (which covers
// exactly these bytes), it passes every shape check, and it fails only
// where it matters: every score it produces is NaN. Persisted with
// pathrank.SaveArtifactFile it is the bundle the canary gate exists to
// keep out of service: it loads cleanly everywhere and serves garbage.
func PoisonArtifact(art *pathrank.Artifact) (*pathrank.Artifact, error) {
	model, err := art.Model.Clone()
	if err != nil {
		return nil, fmt.Errorf("chaos: clone model: %w", err)
	}
	nan := make([]float64, model.Config().EmbeddingDim)
	for i := range nan {
		nan[i] = math.NaN()
	}
	vecs := make([][]float64, art.Graph.NumVertices())
	for v := range vecs {
		vecs[v] = nan // InitEmbeddings copies each row
	}
	if err := model.InitEmbeddings(&node2vec.Embeddings{Dim: len(nan), Vecs: vecs}); err != nil {
		return nil, fmt.Errorf("chaos: poison embeddings: %w", err)
	}
	lin := art.Lineage
	lin.Generation++
	return &pathrank.Artifact{
		Graph:      art.Graph,
		Model:      model,
		Candidates: art.Candidates,
		Lineage:    lin,
	}, nil
}
