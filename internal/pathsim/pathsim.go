// Package pathsim measures similarity between paths in a road network.
//
// The central function is WeightedJaccard, which the paper uses as the
// ground-truth ranking score of a candidate path against the trajectory
// path: the ratio of the summed lengths of shared edges to the summed
// lengths of all edges in either path. Plain (unweighted) Jaccard is kept
// as the reference WeightedJaccard reduces to on uniform edge lengths.
package pathsim

import (
	"sync"

	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// edgeScratch holds generation-stamped edge membership marks so the
// similarity kernels run without per-call map allocations. WeightedJaccard
// is called once per (candidate, accepted) pair inside DiversifiedTopK and
// once per candidate during dataset labeling, which made the two maps the
// old implementation allocated per call a measurable share of candidate
// generation. A scratch is acquired from a pool per call, so concurrent
// similarity evaluation (parallel experiment rows) stays safe.
type edgeScratch struct {
	stampA []uint32
	stampB []uint32
	genA   uint32
	genB   uint32
}

var edgeScratchPool = sync.Pool{New: func() any { return &edgeScratch{} }}

// begin sizes the stamp arrays for m edges and starts fresh generations
// (no edge marked), clearing only on counter wrap.
func (sc *edgeScratch) begin(m int) {
	if len(sc.stampA) < m {
		sc.stampA = make([]uint32, m)
		sc.stampB = make([]uint32, m)
		sc.genA = 0
		sc.genB = 0
	}
	sc.genA++
	if sc.genA == 0 { // stamp wrap: clear once every 2^32 uses
		clearU32(sc.stampA)
		sc.genA = 1
	}
	sc.genB++
	if sc.genB == 0 {
		clearU32(sc.stampB)
		sc.genB = 1
	}
}

// getEdgeScratch returns a pooled scratch covering m edges with fresh
// generations.
func getEdgeScratch(m int) *edgeScratch {
	sc := edgeScratchPool.Get().(*edgeScratch)
	sc.begin(m)
	return sc
}

func (sc *edgeScratch) release() { edgeScratchPool.Put(sc) }

func clearU32(s []uint32) {
	for i := range s {
		s[i] = 0
	}
}

// WeightedJaccard returns sum(len(e) for e in A∩B) / sum(len(e) for e in
// A∪B) over the edge sets of a and b. It is 1 for identical edge sets, 0 for
// disjoint ones, and symmetric. Two empty paths are defined to have
// similarity 1.
//
// The accumulation order matches the historical map-based implementation
// exactly (all of a's edges, then b's in sequence), so scores — and every
// metric derived from them — are bit-identical to earlier releases.
func WeightedJaccard(g *roadnet.Graph, a, b spath.Path) float64 {
	if len(a.Edges) == 0 && len(b.Edges) == 0 {
		return 1
	}
	sc := getEdgeScratch(g.NumEdges())
	defer sc.release()
	return weightedJaccardScratch(g, a, b, sc)
}

// weightedJaccardScratch is the map-free kernel; sc must cover g's edges
// with fresh generations.
func weightedJaccardScratch(g *roadnet.Graph, a, b spath.Path, sc *edgeScratch) float64 {
	for _, e := range a.Edges {
		sc.stampA[e] = sc.genA
	}
	var inter, union float64
	for _, e := range a.Edges {
		union += g.Edge(e).Length
	}
	for _, e := range b.Edges {
		if sc.stampB[e] == sc.genB {
			continue
		}
		sc.stampB[e] = sc.genB
		if sc.stampA[e] == sc.genA {
			inter += g.Edge(e).Length
		} else {
			union += g.Edge(e).Length
		}
	}
	if union == 0 {
		return 1
	}
	return inter / union
}

// Jaccard returns |A∩B| / |A∪B| over edge sets (unweighted).
func Jaccard(a, b spath.Path) float64 {
	if len(a.Edges) == 0 && len(b.Edges) == 0 {
		return 1
	}
	inA := make(map[roadnet.EdgeID]bool, len(a.Edges))
	for _, e := range a.Edges {
		inA[e] = true
	}
	var inter int
	seenB := make(map[roadnet.EdgeID]bool, len(b.Edges))
	union := len(inA)
	for _, e := range b.Edges {
		if seenB[e] {
			continue
		}
		seenB[e] = true
		if inA[e] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// WeightedJaccardSim adapts WeightedJaccard to the spath.Similarity
// signature for use with DiversifiedTopK. The returned closure owns its
// scratch buffers outright — no pool round-trip per call — so it must be
// used sequentially by one goroutine at a time. Every call site (candidate
// generation, labeling, the ranker) already creates its own closure per
// operation, which is exactly that discipline.
func WeightedJaccardSim(g *roadnet.Graph) spath.Similarity {
	return simOn(g, &edgeScratch{})
}

// PooledWeightedJaccardSim is WeightedJaccardSim on a scratch borrowed from
// the package pool, for one query-time enumeration: the two stamp arrays
// cover every edge of g, so a fresh pair per query would cost O(|E|)
// allocation. release returns the scratch; sim must not be called after.
func PooledWeightedJaccardSim(g *roadnet.Graph) (sim spath.Similarity, release func()) {
	sc := edgeScratchPool.Get().(*edgeScratch)
	return simOn(g, sc), sc.release
}

// simOn is the Similarity over g that runs on sc.
func simOn(g *roadnet.Graph, sc *edgeScratch) spath.Similarity {
	return func(a, b spath.Path) float64 {
		if len(a.Edges) == 0 && len(b.Edges) == 0 {
			return 1
		}
		sc.begin(g.NumEdges())
		return weightedJaccardScratch(g, a, b, sc)
	}
}
