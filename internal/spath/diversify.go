package spath

import (
	"context"

	"pathrank/internal/roadnet"
)

// Similarity scores the overlap of two paths in [0,1], where 1 means
// identical. Implementations live in internal/pathsim; the indirection keeps
// spath free of a dependency cycle.
type Similarity func(a, b Path) float64

// DiversifiedTopK returns up to k loopless paths from src to dst such that
// every pair of returned paths has similarity at most threshold, in
// increasing cost order. This implements the paper's D-TkDI strategy
// ("diversified top-k shortest paths w.r.t. distance"): candidates are
// enumerated in Yen order and greedily accepted if sufficiently dissimilar
// from all previously accepted paths.
//
// maxProbe bounds how many Yen paths are enumerated while looking for
// diverse ones (a multiple of k, e.g. 10*k); a loose bound keeps worst-case
// latency predictable on dense networks. Enumeration is lazy: it stops as
// soon as k diverse paths are accepted, so the typical query enumerates a
// small fraction of the probe budget — the accepted set is identical to
// enumerating all maxProbe paths first and filtering afterwards, because
// the greedy filter never looks ahead.
func DiversifiedTopK(g *roadnet.Graph, src, dst roadnet.VertexID, k int, w Weight, sim Similarity, threshold float64, maxProbe int) ([]Path, error) {
	return DiversifiedTopKCtx(context.Background(), g, src, dst, k, w, sim, threshold, maxProbe)
}

// DiversifiedTopKCtx is DiversifiedTopK honoring ctx; see TopKCtx for the
// cancellation contract.
func DiversifiedTopKCtx(ctx context.Context, g *roadnet.Graph, src, dst roadnet.VertexID, k int, w Weight, sim Similarity, threshold float64, maxProbe int) ([]Path, error) {
	paths, _, err := DiversifiedTopKStatsCtx(ctx, g, src, dst, k, w, sim, threshold, maxProbe)
	return paths, err
}

// DiversifiedTopKStatsCtx is DiversifiedTopKCtx additionally reporting
// enumeration statistics.
func DiversifiedTopKStatsCtx(ctx context.Context, g *roadnet.Graph, src, dst roadnet.VertexID, k int, w Weight, sim Similarity, threshold float64, maxProbe int) ([]Path, EnumStats, error) {
	return enumerate(ctx, g, nil, w, src, dst, k, sim, threshold, maxProbe)
}

// DiversifiedTopKEngine is DiversifiedTopK running on a prepared Engine;
// see TopKEngine for how the engine accelerates the enumeration.
func DiversifiedTopKEngine(e Engine, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, error) {
	return DiversifiedTopKEngineCtx(context.Background(), e, src, dst, k, sim, threshold, maxProbe)
}

// DiversifiedTopKEngineCtx is DiversifiedTopKEngine honoring ctx; see
// TopKCtx for the cancellation contract.
func DiversifiedTopKEngineCtx(ctx context.Context, e Engine, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, error) {
	paths, _, err := enumerate(ctx, e.Graph(), e, nil, src, dst, k, sim, threshold, maxProbe)
	return paths, err
}
