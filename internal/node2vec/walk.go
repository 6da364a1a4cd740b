package node2vec

import (
	"math/rand"
	"sort"

	"pathrank/internal/roadnet"
)

// WalkConfig parameterizes the biased random walks.
type WalkConfig struct {
	WalksPerVertex int     // r in the paper
	WalkLength     int     // l in the paper
	P              float64 // return parameter: high P discourages revisiting
	Q              float64 // in-out parameter: low Q encourages exploration (DFS-like)
	Seed           int64
}

// DefaultWalkConfig mirrors common node2vec settings scaled for road
// networks.
func DefaultWalkConfig() WalkConfig {
	return WalkConfig{WalksPerVertex: 8, WalkLength: 40, P: 1, Q: 0.5, Seed: 1}
}

// walker precomputes sorted neighbor lists for O(log d) adjacency tests
// during second-order transitions.
type walker struct {
	g         *roadnet.Graph
	neighbors [][]roadnet.VertexID // sorted out-neighbors per vertex
	cfg       WalkConfig
	maxDeg    int
}

func newWalker(g *roadnet.Graph, cfg WalkConfig) *walker {
	w := &walker{g: g, cfg: cfg, neighbors: make([][]roadnet.VertexID, g.NumVertices())}
	for v := 0; v < g.NumVertices(); v++ {
		outs := g.OutEdges(roadnet.VertexID(v))
		ns := make([]roadnet.VertexID, 0, len(outs))
		for _, eid := range outs {
			ns = append(ns, g.Edge(eid).To)
		}
		sort.Slice(ns, func(a, b int) bool { return ns[a] < ns[b] })
		w.neighbors[v] = ns
		if len(ns) > w.maxDeg {
			w.maxDeg = len(ns)
		}
	}
	return w
}

func (w *walker) adjacent(u, v roadnet.VertexID) bool {
	ns := w.neighbors[u]
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// step samples the next vertex after cur, where prev is the vertex visited
// before cur (or -1 at the start of the walk). buf is caller-owned scratch
// with capacity at least the walker's maximum out-degree, so the hot loop
// performs no allocation.
func (w *walker) step(rng *rand.Rand, prev, cur roadnet.VertexID, buf []float64) (roadnet.VertexID, bool) {
	ns := w.neighbors[cur]
	if len(ns) == 0 {
		return 0, false
	}
	if prev < 0 {
		return ns[rng.Intn(len(ns))], true
	}
	weights := buf[:len(ns)]
	for i, x := range ns {
		switch {
		case x == prev:
			weights[i] = 1 / w.cfg.P
		case w.adjacent(prev, x):
			weights[i] = 1
		default:
			weights[i] = 1 / w.cfg.Q
		}
	}
	// For small degrees a linear roulette is faster than building an alias
	// table per step.
	var sum float64
	for _, wt := range weights {
		sum += wt
	}
	r := rng.Float64() * sum
	for i, wt := range weights {
		r -= wt
		if r <= 0 {
			return ns[i], true
		}
	}
	return ns[len(ns)-1], true
}

// GenerateWalks produces cfg.WalksPerVertex walks of length cfg.WalkLength
// from every vertex of g, in a deterministic order given cfg.Seed.
func GenerateWalks(g *roadnet.Graph, cfg WalkConfig) [][]roadnet.VertexID {
	w := newWalker(g, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := g.NumVertices()
	walks := make([][]roadnet.VertexID, 0, n*cfg.WalksPerVertex)
	order := rng.Perm(n)
	buf := make([]float64, w.maxDeg)
	for rep := 0; rep < cfg.WalksPerVertex; rep++ {
		for _, vi := range order {
			walks = append(walks, w.walkFrom(rng, roadnet.VertexID(vi), cfg.WalkLength, buf))
		}
	}
	return walks
}

// walkFrom runs one biased walk of up to length steps starting at start.
func (w *walker) walkFrom(rng *rand.Rand, start roadnet.VertexID, length int, buf []float64) []roadnet.VertexID {
	walk := make([]roadnet.VertexID, 1, length)
	walk[0] = start
	prev := roadnet.VertexID(-1)
	cur := start
	for len(walk) < length {
		next, ok := w.step(rng, prev, cur, buf)
		if !ok {
			break
		}
		walk = append(walk, next)
		prev, cur = cur, next
	}
	return walk
}
