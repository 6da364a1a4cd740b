package metrics

import (
	"math"
	"testing"
)

// TestRankOfBestEdgeCases pins the documented definition on degenerate
// inputs: empty rankings, single elements, full ties, and NaN scores.
func TestRankOfBestEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name   string
		pred   []float64
		target []float64
		want   int
	}{
		{"empty", nil, nil, 0},
		{"single element", []float64{0.3}, []float64{1}, 1},
		{"clear winner", []float64{0.9, 0.1, 0.5}, []float64{1, 0, 0.5}, 1},
		{"reversed", []float64{0.1, 0.5, 0.9}, []float64{1, 0.5, 0}, 3},
		// Ties count against the ranker: a constant prediction ranks the
		// true item last, not first.
		{"all pred ties", []float64{0.5, 0.5, 0.5}, []float64{0, 1, 0}, 3},
		{"tie with best only", []float64{0.7, 0.7, 0.2}, []float64{1, 0, 0}, 2},
		// Ties in target: the first maximal target is "the" true item.
		{"target ties", []float64{0.9, 0.1}, []float64{1, 1}, 1},
		// NaN predictions rank below every real score (worst case), never
		// accidentally first.
		{"nan pred on best", []float64{nan, 0.1, 0.2}, []float64{1, 0, 0}, 3},
		{"all nan preds", []float64{nan, nan, nan}, []float64{0, 1, 0}, 3},
		{"nan pred on competitor", []float64{0.4, nan, 0.2}, []float64{1, 0, 0}, 1},
		{"nan competitor beats nothing", []float64{0.1, nan, 0.9}, []float64{1, 0, 0}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := RankOfBest(tc.pred, tc.target); got != tc.want {
				t.Errorf("RankOfBest(%v, %v) = %d, want %d", tc.pred, tc.target, got, tc.want)
			}
		})
	}
}

func TestMRREdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name    string
		preds   [][]float64
		targets [][]float64
		want    float64
	}{
		{"no queries", nil, nil, 0},
		{"all empty queries", [][]float64{{}, {}}, [][]float64{{}, {}}, 0},
		{"single element query", [][]float64{{0.2}}, [][]float64{{1}}, 1},
		{"perfect and worst", [][]float64{{0.9, 0.1}, {0.1, 0.9}}, [][]float64{{1, 0}, {1, 0}}, 0.75},
		// Empty queries are skipped, not averaged in as zeros.
		{"empty query skipped", [][]float64{{}, {0.9, 0.1}}, [][]float64{{}, {1, 0}}, 1},
		// A NaN scorer earns the reciprocal of the worst rank.
		{"nan best pred", [][]float64{{nan, 0.5}}, [][]float64{{1, 0}}, 0.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := MRR(tc.preds, tc.targets); got != tc.want {
				t.Errorf("MRR = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestHitAtKEdgeCases(t *testing.T) {
	preds := [][]float64{{0.9, 0.1, 0.2}, {0.1, 0.2, 0.9}}
	targets := [][]float64{{1, 0, 0}, {1, 0, 0}} // ranks 1 and 3
	cases := []struct {
		name string
		k    int
		want float64
	}{
		{"k zero", 0, 0},
		{"k negative", -2, 0},
		{"k one", 1, 0.5},
		{"k two", 2, 0.5},
		{"k covers all", 3, 1},
		{"k beyond set", 10, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := HitAtK(preds, targets, tc.k); got != tc.want {
				t.Errorf("HitAtK(k=%d) = %v, want %v", tc.k, got, tc.want)
			}
		})
	}
	if got := HitAtK(nil, nil, 3); got != 0 {
		t.Errorf("HitAtK on no queries = %v, want 0", got)
	}
	// All-ties: rank is worst-case (3), so only k >= 3 hits.
	tied := [][]float64{{0.5, 0.5, 0.5}}
	tt := [][]float64{{1, 0, 0}}
	if got := HitAtK(tied, tt, 2); got != 0 {
		t.Errorf("HitAtK all-ties k=2 = %v, want 0", got)
	}
	if got := HitAtK(tied, tt, 3); got != 1 {
		t.Errorf("HitAtK all-ties k=3 = %v, want 1", got)
	}
}

func TestMeanRankEdgeCases(t *testing.T) {
	nan := math.NaN()
	if got := MeanRank(nil, nil); got != 0 {
		t.Errorf("MeanRank no queries = %v, want 0", got)
	}
	if got := MeanRank([][]float64{{}}, [][]float64{{}}); got != 0 {
		t.Errorf("MeanRank empty query = %v, want 0", got)
	}
	preds := [][]float64{{0.9, 0.1}, {0.1, 0.9}, {nan, nan, nan}}
	targets := [][]float64{{1, 0}, {1, 0}, {1, 0, 0}}
	// Ranks: 1, 2, and worst-case 3 for the all-NaN scorer.
	if got, want := MeanRank(preds, targets), 2.0; got != want {
		t.Errorf("MeanRank = %v, want %v", got, want)
	}
}

// TestRankStatsDegenerate pins the tie-corrected correlation statistics on
// the degenerate inputs the streaming retrainer can produce (constant or
// sub-2-element score vectors).
func TestRankStatsDegenerate(t *testing.T) {
	if got := KendallTau([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("KendallTau single element = %v, want 0", got)
	}
	if got := KendallTau([]float64{3, 3, 3}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("KendallTau constant vector = %v, want 0", got)
	}
	if got := SpearmanRho([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("SpearmanRho single element = %v, want 0", got)
	}
	if got := SpearmanRho([]float64{3, 3, 3}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("SpearmanRho constant vector = %v, want 0", got)
	}
}
