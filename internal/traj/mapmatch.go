package traj

import (
	"context"
	"fmt"
	"math"
	"sort"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// MatchConfig parameterizes the HMM map matcher.
type MatchConfig struct {
	// Candidates is the number of nearest vertices considered per GPS
	// sample.
	Candidates int
	// SigmaM is the GPS noise standard deviation used by the emission
	// model (meters).
	SigmaM float64
	// BetaM is the scale of the transition model's penalty on the
	// difference between routed and great-circle distance (meters).
	BetaM float64
	// StrideSec subsamples the GPS stream so consecutive matched samples
	// are at least this many seconds apart; 1 Hz input with StrideSec=10
	// matches every ~10th record. Matching every high-rate sample wastes
	// work without improving the recovered path.
	StrideSec float64
}

// DefaultMatchConfig returns the Newson–Krumm-style defaults used in tests
// and examples. SigmaM is deliberately larger than the raw GPS noise: with
// vertex candidates, samples taken mid-edge sit a substantial distance from
// every candidate, and a wide emission keeps the transition model (which
// carries the road-topology information) decisive.
func DefaultMatchConfig() MatchConfig {
	return MatchConfig{Candidates: 4, SigmaM: 40, BetaM: 25, StrideSec: 10}
}

// gridIndex is a uniform spatial hash over vertices for nearest-neighbor
// queries.
type gridIndex struct {
	g        *roadnet.Graph
	cellDegs float64
	cells    map[[2]int][]roadnet.VertexID
}

func newGridIndex(g *roadnet.Graph, cellMeters float64) *gridIndex {
	idx := &gridIndex{
		g:        g,
		cellDegs: cellMeters / 111320.0,
		cells:    make(map[[2]int][]roadnet.VertexID),
	}
	for v := 0; v < g.NumVertices(); v++ {
		key := idx.key(g.Vertex(roadnet.VertexID(v)).Point)
		idx.cells[key] = append(idx.cells[key], roadnet.VertexID(v))
	}
	return idx
}

func (idx *gridIndex) key(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.Lon / idx.cellDegs)), int(math.Floor(p.Lat / idx.cellDegs))}
}

// nearest returns up to k vertices closest to p, searching expanding rings
// of cells.
func (idx *gridIndex) nearest(p geo.Point, k int) []roadnet.VertexID {
	center := idx.key(p)
	type cand struct {
		v roadnet.VertexID
		d float64
	}
	var cands []cand
	for ring := 0; ring < 8; ring++ {
		for dx := -ring; dx <= ring; dx++ {
			for dy := -ring; dy <= ring; dy++ {
				if ring > 0 && abs(dx) != ring && abs(dy) != ring {
					continue // only the new ring boundary
				}
				for _, v := range idx.cells[[2]int{center[0] + dx, center[1] + dy}] {
					cands = append(cands, cand{v: v, d: geo.Distance(p, idx.g.Vertex(v).Point)})
				}
			}
		}
		if len(cands) >= k && ring >= 1 {
			break
		}
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]roadnet.VertexID, len(cands))
	for i, c := range cands {
		out[i] = c.v
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Matcher recovers network paths from GPS streams using a hidden Markov
// model over candidate vertices with Viterbi decoding, following
// Newson & Krumm (GIS 2009): emissions are Gaussian in the GPS-to-candidate
// distance, transitions penalize the gap between routed distance and
// great-circle displacement.
//
// Routed transition distances and path stitching run on plain Dijkstra:
// one bounded multi-target search per previous candidate, on one pooled
// workspace per Match, and one point-to-point search per stitched segment.
//
// A Matcher is immutable after construction (the spatial index is built
// once and only read afterwards), so concurrent Match calls are safe — the
// streaming pipeline in internal/stream runs several matching workers over
// one Matcher.
type Matcher struct {
	g   *roadnet.Graph
	idx *gridIndex
	cfg MatchConfig
}

// NewMatcher builds a matcher over g.
func NewMatcher(g *roadnet.Graph, cfg MatchConfig) *Matcher {
	if cfg.Candidates <= 0 {
		cfg.Candidates = 4
	}
	if cfg.SigmaM <= 0 {
		cfg.SigmaM = 10
	}
	if cfg.BetaM <= 0 {
		cfg.BetaM = 60
	}
	return &Matcher{g: g, idx: newGridIndex(g, 4*cfg.SigmaM+200), cfg: cfg}
}

// Match decodes the most likely vertex sequence for the GPS stream and
// stitches it into a connected path with shortest-path segments. The
// returned path starts and ends at the matched first and last samples. An
// error is returned when the stream is empty or decoding fails.
func (m *Matcher) Match(records []GPSRecord) (spath.Path, error) {
	return m.MatchCtx(context.Background(), records)
}

// MatchCtx is Match honoring ctx: cancellation aborts the decode between
// Viterbi steps and mid-stitch (the stitch segments run on context-aware
// searches) and returns ctx's error. A Background context decodes
// identically to Match.
func (m *Matcher) MatchCtx(ctx context.Context, records []GPSRecord) (spath.Path, error) {
	if len(records) == 0 {
		return spath.Path{}, fmt.Errorf("traj: empty GPS stream")
	}
	samples := m.subsample(records)

	// Candidate sets per sample.
	cands := make([][]roadnet.VertexID, len(samples))
	for i, r := range samples {
		cands[i] = m.idx.nearest(r.Point, m.cfg.Candidates)
		if len(cands[i]) == 0 {
			return spath.Path{}, fmt.Errorf("traj: no candidate vertices near sample %d", i)
		}
	}

	// Viterbi in log space.
	sigma2 := 2 * m.cfg.SigmaM * m.cfg.SigmaM
	emit := func(r GPSRecord, v roadnet.VertexID) float64 {
		d := geo.Distance(r.Point, m.g.Vertex(v).Point)
		return -d * d / sigma2
	}
	type back struct{ prev int }
	score := make([]float64, len(cands[0]))
	for i, v := range cands[0] {
		score[i] = emit(samples[0], v)
	}
	backs := make([][]back, len(samples))

	// Routed transition distances between consecutive candidate sets come
	// from one bounded multi-target Dijkstra per previous candidate. The
	// bound is strict: pairs beyond gcDist*4+500 are +Inf, so a candidate
	// pair only connectable beyond it is unmatchable. Rows from a
	// previous candidate whose score is already -Inf are never searched.
	ws := spath.GetWorkspace(m.g)
	defer ws.Release()
	routed := make([]float64, m.cfg.Candidates)
	for t := 1; t < len(samples); t++ {
		// One cancellation check per Viterbi step: each step is one set
		// of bounded searches, the natural abort granularity.
		if err := ctx.Err(); err != nil {
			return spath.Path{}, err
		}
		prevCands := cands[t-1]
		curCands := cands[t]
		next := make([]float64, len(curCands))
		backs[t] = make([]back, len(curCands))
		for j := range next {
			next[j] = math.Inf(-1)
		}
		gcDist := geo.Distance(samples[t-1].Point, samples[t].Point)
		row := routed[:len(curCands)]
		for i, pv := range prevCands {
			if math.IsInf(score[i], -1) {
				continue
			}
			ws.BoundedDistances(m.g, pv, curCands, gcDist*4+500, spath.ByLength, row)
			for j, cv := range curCands {
				rd := row[j]
				var trans float64
				if math.IsInf(rd, 1) {
					trans = math.Inf(-1)
				} else {
					trans = -math.Abs(rd-gcDist) / m.cfg.BetaM
				}
				s := score[i] + trans + emit(samples[t], cv)
				if s > next[j] {
					next[j] = s
					backs[t][j] = back{prev: i}
				}
			}
		}
		score = next
	}

	// Best final state.
	bestJ, bestS := -1, math.Inf(-1)
	for j, s := range score {
		if s > bestS {
			bestJ, bestS = j, s
		}
	}
	if bestJ < 0 {
		return spath.Path{}, fmt.Errorf("traj: Viterbi decoding found no feasible state sequence")
	}
	seq := make([]roadnet.VertexID, len(samples))
	j := bestJ
	for t := len(samples) - 1; t >= 0; t-- {
		seq[t] = cands[t][j]
		if t > 0 {
			j = backs[t][j].prev
		}
	}
	return m.stitch(ctx, seq)
}

// subsample thins the GPS stream per StrideSec, always keeping the first
// and last records.
func (m *Matcher) subsample(records []GPSRecord) []GPSRecord {
	if m.cfg.StrideSec <= 0 || len(records) < 3 {
		return records
	}
	out := []GPSRecord{records[0]}
	lastT := records[0].TimeOffset
	for _, r := range records[1 : len(records)-1] {
		if r.TimeOffset-lastT >= m.cfg.StrideSec {
			out = append(out, r)
			lastT = r.TimeOffset
		}
	}
	out = append(out, records[len(records)-1])
	return out
}

// stitch connects the decoded vertex sequence with shortest-path segments,
// skipping consecutive duplicates. Segment queries honor ctx.
func (m *Matcher) stitch(ctx context.Context, seq []roadnet.VertexID) (spath.Path, error) {
	// Deduplicate consecutive repeats.
	uniq := seq[:1]
	for _, v := range seq[1:] {
		if v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) == 1 {
		return spath.Path{Vertices: []roadnet.VertexID{uniq[0]}}, nil
	}
	var edges []roadnet.EdgeID
	for i := 1; i < len(uniq); i++ {
		seg, err := spath.DijkstraCtx(ctx, m.g, uniq[i-1], uniq[i], spath.ByLength)
		if err != nil {
			if ctx.Err() != nil {
				return spath.Path{}, ctx.Err()
			}
			return spath.Path{}, fmt.Errorf("traj: stitch segment %d->%d: %w", uniq[i-1], uniq[i], err)
		}
		edges = append(edges, seg.Edges...)
	}
	return m.removeCycles(uniq[0], edges), nil
}

// removeCycles walks the edge sequence from src, cutting any loop the
// decoder introduced (e.g. a brief detour to an off-path vertex and back).
// The result is a simple path.
func (m *Matcher) removeCycles(src roadnet.VertexID, edges []roadnet.EdgeID) spath.Path {
	vertices := []roadnet.VertexID{src}
	var kept []roadnet.EdgeID
	pos := map[roadnet.VertexID]int{src: 0}
	for _, eid := range edges {
		to := m.g.Edge(eid).To
		if k, seen := pos[to]; seen {
			// Loop back to an earlier vertex: drop the cycle.
			for _, v := range vertices[k+1:] {
				delete(pos, v)
			}
			vertices = vertices[:k+1]
			kept = kept[:k]
			continue
		}
		kept = append(kept, eid)
		vertices = append(vertices, to)
		pos[to] = len(vertices) - 1
	}
	var cost float64
	for _, eid := range kept {
		cost += m.g.Edge(eid).Length
	}
	return spath.Path{Vertices: vertices, Edges: kept, Cost: cost}
}
