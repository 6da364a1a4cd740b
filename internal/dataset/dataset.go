// Package dataset turns trajectories into PathRank training data.
//
// For each trajectory path P_T from s to d, a candidate set is generated
// with one of the paper's two strategies — top-k shortest paths (TkDI) or
// diversified top-k shortest paths (D-TkDI) — and every candidate P is
// labeled with its ground-truth ranking score WeightedJaccard(P, P_T). The
// trajectory path itself is included as a candidate with label 1, so the
// model sees at least one perfectly ranked example per query.
package dataset

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

// Strategy selects the candidate-generation scheme.
type Strategy int

// Candidate-generation strategies from the paper.
const (
	// TkDI is plain top-k shortest paths by distance.
	TkDI Strategy = iota
	// DTkDI is diversified top-k shortest paths by distance.
	DTkDI
)

// String names the strategy as in the paper's tables.
func (s Strategy) String() string {
	switch s {
	case TkDI:
		return "TkDI"
	case DTkDI:
		return "D-TkDI"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Instance is one training/evaluation example: a candidate path with its
// ground-truth ranking score and auxiliary path statistics (used by the
// multi-task extension).
type Instance struct {
	Path  spath.Path
	Label float64 // WeightedJaccard(candidate, trajectory path)

	// Auxiliary regression targets, each normalized to (0,1]: the ratio of
	// the query's minimum to this candidate's value, so the best candidate
	// scores 1.
	LengthRatio float64
	TimeRatio   float64
}

// Query groups the candidate instances generated for one trajectory.
type Query struct {
	Source      roadnet.VertexID
	Destination roadnet.VertexID
	Truth       spath.Path
	Candidates  []Instance
}

// Config parameterizes training-data generation.
type Config struct {
	Strategy  Strategy
	K         int     // candidate-set size
	Threshold float64 // D-TkDI similarity threshold
	MaxProbe  int     // D-TkDI enumeration bound (below K = 10*K)
	// IncludeTruth appends the trajectory path itself (label 1) to the
	// candidate set when the generator did not already produce it.
	IncludeTruth bool
}

// DefaultConfig returns the paper's setup: diversified top-k with k=5.
func DefaultConfig() Config {
	return Config{Strategy: DTkDI, K: 5, Threshold: 0.8, IncludeTruth: true}
}

// Candidates is the one candidate rule: it generates c's candidate set
// from src to dst on g, under the weight table wts when it is non-nil
// (spath.WeightTable(g, w), built once and shared) and under a per-query
// fill of w otherwise. TkDI is Yen's top-K: no similarity filter, a probe
// budget of K. D-TkDI keeps, in Yen order, each path whose weighted
// Jaccard similarity to every kept one is at most Threshold, probing at
// most MaxProbe paths (spath's rule turns a budget below K into 10*K).
// sim, when non-nil, is a pathsim.WeightedJaccardSim(g) the caller
// already holds; D-TkDI borrows a pooled one for the enumeration
// otherwise, so a query allocates no edge-sized scratch.
func (c Config) Candidates(ctx context.Context, g *roadnet.Graph, wts []float64, w spath.Weight, sim spath.Similarity, src, dst roadnet.VertexID) ([]spath.Path, spath.EnumStats, error) {
	switch c.Strategy {
	case TkDI:
		return spath.DiversifiedTopKStatsCtx(ctx, g, wts, w, src, dst, c.K, nil, 0, c.K)
	case DTkDI:
		if sim == nil {
			var release func()
			sim, release = pathsim.PooledWeightedJaccardSim(g)
			defer release()
		}
		return spath.DiversifiedTopKStatsCtx(ctx, g, wts, w, src, dst, c.K, sim, c.Threshold, c.MaxProbe)
	default:
		return nil, spath.EnumStats{}, fmt.Errorf("dataset: unknown strategy %d", c.Strategy)
	}
}

// Generate builds one Query per trip. Trips whose OD pair admits no path
// under the generator are skipped with an error only if all trips fail.
func Generate(g *roadnet.Graph, trips []traj.Trip, cfg Config) ([]Query, error) {
	if cfg.K <= 0 {
		return nil, fmt.Errorf("dataset: K must be positive, got %d", cfg.K)
	}
	sim := pathsim.WeightedJaccardSim(g)
	wts := spath.WeightTable(g, spath.ByLength)
	queries := make([]Query, 0, len(trips))
	for _, tr := range trips {
		src, dst := tr.Path.Source(), tr.Path.Destination()
		cands, _, err := cfg.Candidates(context.Background(), g, wts, nil, sim, src, dst)
		if errors.Is(err, spath.ErrNoPath) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if cfg.IncludeTruth {
			found := false
			for _, c := range cands {
				if c.Equal(tr.Path) {
					found = true
					break
				}
			}
			if !found {
				cands = append(cands, tr.Path)
			}
		}
		q := Query{Source: src, Destination: dst, Truth: tr.Path}
		minLen, minTime := minStats(g, cands)
		for _, c := range cands {
			inst := Instance{
				Path:        c,
				Label:       sim(c, tr.Path),
				LengthRatio: minLen / c.Length(g),
				TimeRatio:   minTime / c.Time(g),
			}
			q.Candidates = append(q.Candidates, inst)
		}
		queries = append(queries, q)
	}
	if len(queries) == 0 {
		return nil, fmt.Errorf("dataset: no usable queries generated from %d trips", len(trips))
	}
	return queries, nil
}

func minStats(g *roadnet.Graph, paths []spath.Path) (minLen, minTime float64) {
	minLen, minTime = -1, -1
	for _, p := range paths {
		if l := p.Length(g); minLen < 0 || l < minLen {
			minLen = l
		}
		if t := p.Time(g); minTime < 0 || t < minTime {
			minTime = t
		}
	}
	return minLen, minTime
}

// Split partitions queries into train and test sets by query (never by
// candidate, which would leak candidates of the same trajectory across the
// split). testFrac is clamped to [0,1].
func Split(queries []Query, testFrac float64, seed int64) (train, test []Query) {
	if testFrac < 0 {
		testFrac = 0
	}
	if testFrac > 1 {
		testFrac = 1
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(queries))
	nTest := int(float64(len(queries)) * testFrac)
	for i, pi := range perm {
		if i < nTest {
			test = append(test, queries[pi])
		} else {
			train = append(train, queries[pi])
		}
	}
	return train, test
}
