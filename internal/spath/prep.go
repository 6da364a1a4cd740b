package spath

import (
	"context"

	"pathrank/internal/roadnet"
)

// Prep bundles a contraction hierarchy built for one road network under
// the ByLength weight. No product path routes on it. Kept because
// benchmark/ names it: it builds one with BuildPrep, persists it in its
// served artifact and times the point query of its Engine.
type Prep struct {
	CH *ContractionHierarchy
}

// PrepConfig parameterizes BuildPrep. It has no fields. Kept because
// benchmark/ calls BuildPrep(g, PrepConfig{}).
type PrepConfig struct{}

// BuildPrep contracts g under ByLength. Kept because benchmark/ calls it.
func BuildPrep(g *roadnet.Graph, _ PrepConfig) *Prep {
	return &Prep{CH: BuildCH(g, ByLength)}
}

// Engine answers exact point-to-point shortest-path queries over a prep's
// contraction hierarchy. Engines are immutable and safe for concurrent
// use; per-query state lives in pooled workspaces. Kept because
// benchmark/ names it (through Ranker.Engine).
type Engine interface {
	// ShortestCtx returns a minimum-cost path from src to dst, or
	// ErrNoPath, honoring ctx: cancellation aborts the search and returns
	// ctx's error. The check is amortized over heap pops, so a
	// never-canceled context changes neither the result nor, measurably,
	// the cost.
	ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error)
}

// Engine wires the prep's hierarchy into an Engine over g, or returns nil
// when there is no prep or it carries no hierarchy. Kept because
// benchmark/ reaches it through Artifact.NewRanker.
func (p *Prep) Engine(g *roadnet.Graph) Engine {
	if p == nil || p.CH == nil {
		return nil
	}
	return &chEngine{g: g, ch: p.CH}
}

type chEngine struct {
	g  *roadnet.Graph
	ch *ContractionHierarchy
}

func (e *chEngine) ShortestCtx(ctx context.Context, src, dst roadnet.VertexID) (Path, error) {
	p, err := e.ch.QueryCtx(ctx, src, dst)
	if err != nil {
		return p, err
	}
	// The bidirectional search accumulates the cost through shortcut sums,
	// whose floating-point rounding can differ from Dijkstra's sequential
	// accumulation in the last ulp. Re-sum the unpacked edges left to right
	// — exactly Dijkstra's association — so costs are bit-identical to
	// Dijkstra's.
	p.Cost = 0
	for _, eid := range p.Edges {
		p.Cost += ByLength(e.g.Edge(eid))
	}
	return p, nil
}
