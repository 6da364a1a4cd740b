// Package metrics implements the evaluation measures of the paper: mean
// absolute error (MAE) and mean absolute relative error (MARE) on the
// regression side, and Kendall's rank correlation coefficient (τ) and
// Spearman's rank correlation coefficient (ρ) on the ranking side. All rank
// statistics handle ties with the standard corrections (τ-b and average
// ranks).
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// MAE returns the mean absolute error between predictions and targets.
func MAE(pred, target []float64) float64 {
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	for i := range pred {
		sum += math.Abs(pred[i] - target[i])
	}
	return sum / float64(len(pred))
}

// MARE returns the mean absolute relative error: sum|p-t| / sum|t|. This is
// the aggregate form robust to near-zero individual targets.
func MARE(pred, target []float64) float64 {
	var num, den float64
	for i := range pred {
		num += math.Abs(pred[i] - target[i])
		den += math.Abs(target[i])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// KendallTau returns Kendall's τ-b between two score vectors, the
// tie-corrected form: (C - D) / sqrt((n0 - tiesA)(n0 - tiesB)) with
// n0 = n(n-1)/2. It is +1 for perfectly concordant orders, -1 for reversed
// ones, and 0 when either vector is constant.
func KendallTau(a, b []float64) float64 {
	n := len(a)
	if n != len(b) {
		panic(fmt.Sprintf("metrics: KendallTau length mismatch %d vs %d", n, len(b)))
	}
	if n < 2 {
		return 0
	}
	var concordant, discordant, tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := a[i] - a[j]
			db := b[i] - b[j]
			switch {
			case da == 0 && db == 0:
				tiesA++
				tiesB++
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case da*db > 0:
				concordant++
			default:
				discordant++
			}
		}
	}
	n0 := float64(n*(n-1)) / 2
	den := math.Sqrt((n0 - tiesA) * (n0 - tiesB))
	if den == 0 {
		return 0
	}
	return (concordant - discordant) / den
}

// ranks returns average ranks (1-based) of xs, assigning tied values the
// mean of the ranks they span.
func ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

// SpearmanRho returns Spearman's rank correlation: the Pearson correlation
// of the average ranks of a and b. It returns 0 when either input is
// constant.
func SpearmanRho(a, b []float64) float64 {
	n := len(a)
	if n != len(b) {
		panic(fmt.Sprintf("metrics: SpearmanRho length mismatch %d vs %d", n, len(b)))
	}
	if n < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	return pearson(ra, rb)
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var cov, va, vb float64
	for i := range a {
		da := a[i] - ma
		db := b[i] - mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// Report aggregates the paper's four metrics over a set of ranking queries.
// MAE and MARE are computed over the pooled (prediction, target) pairs;
// τ and ρ are computed per query and averaged, matching the paper's
// per-candidate-set ranking evaluation.
type Report struct {
	MAE      float64
	MARE     float64
	Tau      float64
	Rho      float64
	NQueries int
	NPairs   int
}

// String formats the report as a table row.
func (r Report) String() string {
	return fmt.Sprintf("MAE=%.4f MARE=%.4f tau=%.4f rho=%.4f (queries=%d pairs=%d)",
		r.MAE, r.MARE, r.Tau, r.Rho, r.NQueries, r.NPairs)
}

// Evaluate builds a Report from per-query prediction/target slices. Queries
// with fewer than two candidates contribute to MAE/MARE but not to the rank
// correlations.
func Evaluate(preds, targets [][]float64) Report {
	if len(preds) != len(targets) {
		panic(fmt.Sprintf("metrics: Evaluate got %d pred queries, %d target queries", len(preds), len(targets)))
	}
	var allP, allT []float64
	var tauSum, rhoSum float64
	var rankQueries int
	for q := range preds {
		if len(preds[q]) != len(targets[q]) {
			panic(fmt.Sprintf("metrics: query %d has %d preds, %d targets", q, len(preds[q]), len(targets[q])))
		}
		allP = append(allP, preds[q]...)
		allT = append(allT, targets[q]...)
		if len(preds[q]) >= 2 {
			tauSum += KendallTau(preds[q], targets[q])
			rhoSum += SpearmanRho(preds[q], targets[q])
			rankQueries++
		}
	}
	rep := Report{
		MAE:      MAE(allP, allT),
		MARE:     MARE(allP, allT),
		NQueries: len(preds),
		NPairs:   len(allP),
	}
	if rankQueries > 0 {
		rep.Tau = tauSum / float64(rankQueries)
		rep.Rho = rhoSum / float64(rankQueries)
	}
	return rep
}
