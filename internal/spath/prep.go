package spath

import (
	"context"

	"pathrank/internal/roadnet"
)

// The names in this file route nothing. Candidate generation runs Yen's
// enumeration on per-metric weight tables; no product path has built or
// queried a contraction hierarchy since the weight tables replaced it.

// Prep is kept only because benchmark/ names it; ROADMAP item 4 removes
// it. It carries an empty hierarchy.
type Prep struct {
	CH *ContractionHierarchy
}

// ContractionHierarchy is kept only because benchmark/ names it; ROADMAP
// item 4 removes it. It holds nothing.
type ContractionHierarchy struct{}

// NumShortcuts returns 0: the hierarchy is empty. Kept only because
// benchmark/ names it; ROADMAP item 4 removes it.
func (*ContractionHierarchy) NumShortcuts() int { return 0 }

// PrepConfig is kept only because benchmark/ names it; ROADMAP item 4
// removes it.
type PrepConfig struct{}

// BuildPrep builds nothing and returns a Prep with an empty hierarchy.
// Kept only because benchmark/ names it; ROADMAP item 4 removes it.
func BuildPrep(*roadnet.Graph, PrepConfig) *Prep {
	return &Prep{CH: &ContractionHierarchy{}}
}

// Engine answers exact point-to-point shortest-path queries. Kept only
// because benchmark/ names it (through Ranker.Engine); ROADMAP item 4
// removes it.
type Engine interface {
	// ShortestCtx returns a minimum-cost path from src to dst, or
	// ErrNoPath, honoring ctx: cancellation aborts the search and returns
	// ctx's error.
	ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error)
}

// DijkstraEngine returns an Engine whose point query is DijkstraCtx on g
// under ByLength. It is Ranker.Engine; kept only because benchmark/ names
// that field; ROADMAP item 4 removes it.
func DijkstraEngine(g *roadnet.Graph) Engine { return dijkstraEngine{g} }

type dijkstraEngine struct{ g *roadnet.Graph }

func (e dijkstraEngine) ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error) {
	return DijkstraCtx(ctx, e.g, src, dst, ByLength)
}
