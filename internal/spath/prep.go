package spath

import "pathrank/internal/roadnet"

// Prep bundles the precomputed speedup structure for one road network
// under the ByLength weight — the metric map matching and the sharded
// tier's boundary tables route with: the contraction hierarchy. Building a
// Prep once (at training time) and persisting it in the serving artifact
// is what lets every consumer start without preprocessing.
type Prep struct {
	CH *ContractionHierarchy
}

// PrepConfig parameterizes BuildPrep. It has no fields; it is kept, and
// BuildPrep keeps its signature, only because benchmark/ calls
// BuildPrep(g, PrepConfig{}) and may not be edited.
type PrepConfig struct{}

// BuildPrep contracts g under ByLength.
func BuildPrep(g *roadnet.Graph, _ PrepConfig) *Prep {
	return &Prep{CH: BuildCH(g, ByLength)}
}

// Engine wires the prep's hierarchy into a CH engine over g, or returns
// nil when there is no prep or it carries no hierarchy.
func (p *Prep) Engine(g *roadnet.Graph) Engine {
	if p == nil || p.CH == nil {
		return nil
	}
	return EngineFromCH(p.CH, g, ByLength)
}
