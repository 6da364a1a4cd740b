package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMAEBasic(t *testing.T) {
	if got := MAE([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("MAE identical = %v, want 0", got)
	}
	if got := MAE([]float64{2, 4}, []float64{1, 2}); got != 1.5 {
		t.Fatalf("MAE = %v, want 1.5", got)
	}
	if got := MAE(nil, nil); got != 0 {
		t.Fatalf("MAE empty = %v, want 0", got)
	}
}

func TestMAREBasic(t *testing.T) {
	if got := MARE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Fatalf("MARE identical = %v", got)
	}
	// |2-1|+|4-2| over |1|+|2| = 3/3 = 1.
	if got := MARE([]float64{2, 4}, []float64{1, 2}); got != 1 {
		t.Fatalf("MARE = %v, want 1", got)
	}
	if got := MARE([]float64{1}, []float64{0}); got != 0 {
		t.Fatalf("MARE with zero targets = %v, want 0", got)
	}
}

func TestKendallTauPerfect(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := KendallTau(a, a); got != 1 {
		t.Fatalf("tau(a,a) = %v, want 1", got)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Fatalf("tau reversed = %v, want -1", got)
	}
}

func TestKendallTauConstantInput(t *testing.T) {
	if got := KendallTau([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("tau with constant a = %v, want 0", got)
	}
	if got := KendallTau([]float64{1}, []float64{2}); got != 0 {
		t.Fatalf("tau singleton = %v, want 0", got)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// a: 1 2 3 4; b: 1 3 2 4 -> pairs: 6 total, 5 concordant, 1 discordant.
	a := []float64{1, 2, 3, 4}
	b := []float64{1, 3, 2, 4}
	want := (5.0 - 1.0) / 6.0
	if got := KendallTau(a, b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tau = %v, want %v", got, want)
	}
}

func TestKendallTauWithTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 3, 4}
	got := KendallTau(a, b)
	// tau-b: C=5, D=0, tiesA=1 -> 5/sqrt(5*6).
	want := 5.0 / math.Sqrt(30)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("tau-b = %v, want %v", got, want)
	}
}

func TestSpearmanPerfectMonotone(t *testing.T) {
	a := []float64{1, 5, 2, 8}
	b := []float64{10, 50, 20, 80} // same order
	if got := SpearmanRho(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rho monotone = %v, want 1", got)
	}
	c := []float64{-1, -5, -2, -8}
	if got := SpearmanRho(a, c); math.Abs(got+1) > 1e-12 {
		t.Fatalf("rho anti-monotone = %v, want -1", got)
	}
}

func TestSpearmanKnownValue(t *testing.T) {
	// Classic example with no ties: rho = 1 - 6*sum(d^2)/(n(n^2-1)).
	a := []float64{86, 97, 99, 100, 101, 103, 106, 110, 112, 113}
	b := []float64{0, 20, 28, 27, 50, 29, 7, 17, 6, 12}
	got := SpearmanRho(a, b)
	want := -29.0 / 165.0 // -0.17575...
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("rho = %v, want %v", got, want)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 2, 3}
	if got := SpearmanRho(a, b); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rho tied identical = %v, want 1", got)
	}
	if got := SpearmanRho([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("rho constant = %v, want 0", got)
	}
}

func TestRanksAverageTies(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

func TestCorrelationBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		tau := KendallTau(a, b)
		rho := SpearmanRho(a, b)
		return tau >= -1-1e-12 && tau <= 1+1e-12 && rho >= -1-1e-12 && rho <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		return math.Abs(KendallTau(a, b)-KendallTau(b, a)) < 1e-12 &&
			math.Abs(SpearmanRho(a, b)-SpearmanRho(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTauInvariantUnderMonotoneTransformProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		// exp is strictly monotone, so tau must not change.
		ea := make([]float64, n)
		for i := range a {
			ea[i] = math.Exp(a[i])
		}
		return math.Abs(KendallTau(a, b)-KendallTau(ea, b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateAggregation(t *testing.T) {
	preds := [][]float64{{0.9, 0.5, 0.1}, {0.8, 0.3}}
	targets := [][]float64{{1.0, 0.6, 0.2}, {0.9, 0.2}}
	rep := Evaluate(preds, targets)
	if rep.NQueries != 2 || rep.NPairs != 5 {
		t.Fatalf("queries=%d pairs=%d, want 2/5", rep.NQueries, rep.NPairs)
	}
	if math.Abs(rep.Tau-1) > 1e-12 || math.Abs(rep.Rho-1) > 1e-12 {
		t.Fatalf("tau=%v rho=%v, want 1/1 for concordant queries", rep.Tau, rep.Rho)
	}
	wantMAE := (0.1 + 0.1 + 0.1 + 0.1 + 0.1) / 5
	if math.Abs(rep.MAE-wantMAE) > 1e-12 {
		t.Fatalf("MAE = %v, want %v", rep.MAE, wantMAE)
	}
}

func TestEvaluateSkipsSingletonQueriesForRankMetrics(t *testing.T) {
	preds := [][]float64{{0.5}, {0.9, 0.1}}
	targets := [][]float64{{0.7}, {1.0, 0.0}}
	rep := Evaluate(preds, targets)
	if math.Abs(rep.Tau-1) > 1e-12 {
		t.Fatalf("tau = %v, want 1 (singleton query excluded)", rep.Tau)
	}
}

func TestEvaluatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate([][]float64{{1}}, [][]float64{{1}, {2}})
}

func TestReportString(t *testing.T) {
	r := Report{MAE: 0.1, MARE: 0.2, Tau: 0.3, Rho: 0.4, NQueries: 5, NPairs: 25}
	s := r.String()
	if s == "" {
		t.Fatal("empty report string")
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
