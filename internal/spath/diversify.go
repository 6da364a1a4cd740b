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
	paths, _, err := enumerate(context.Background(), g, nil, w, src, dst, k, sim, threshold, maxProbe)
	return paths, err
}

// DiversifiedTopKStatsCtx is the enumeration entry every candidate set is
// generated through (dataset.Config.Candidates): DiversifiedTopK on e when
// e is non-nil (an engine over g, of which only the weight table is read)
// and plain on g under w otherwise, honoring ctx, with enumeration
// statistics.
// A nil sim accepts every path, which is TkDI; a maxProbe below k means
// 10*k. Cancellation stops the enumeration, including a spur search in
// flight, and returns ctx's error; the check is amortized over heap pops,
// so a never-canceled context gives bit-identical results at no
// measurable cost.
func DiversifiedTopKStatsCtx(ctx context.Context, g *roadnet.Graph, e Engine, w Weight, src, dst roadnet.VertexID, k int, sim Similarity, threshold float64, maxProbe int) ([]Path, EnumStats, error) {
	return enumerate(ctx, g, e, w, src, dst, k, sim, threshold, maxProbe)
}
