package dataset

import (
	"math"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/traj"
)

func testNet(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.GenConfig{
		Rows: 10, Cols: 10, SpacingM: 250, JitterFrac: 0.2,
		RemoveFrac: 0.08, ArterialEvery: 4, Motorway: false,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 31,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

func testTrips(t testing.TB, g *roadnet.Graph, n int) []traj.Trip {
	t.Helper()
	drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: n, Seed: 32})
	trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{TripsPerDriver: 2, MinHops: 4, Seed: 33})
	if err != nil {
		t.Fatalf("trips: %v", err)
	}
	return trips
}

func TestGenerateTkDI(t *testing.T) {
	g := testNet(t)
	trips := testTrips(t, g, 4)
	queries, err := Generate(g, trips, Config{Strategy: TkDI, K: 4, IncludeTruth: true})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(queries) != len(trips) {
		t.Fatalf("got %d queries for %d trips", len(queries), len(trips))
	}
	for qi, q := range queries {
		if len(q.Candidates) < 2 {
			t.Fatalf("query %d has %d candidates", qi, len(q.Candidates))
		}
		hasTruth := false
		for _, c := range q.Candidates {
			if c.Label < 0 || c.Label > 1+1e-12 {
				t.Fatalf("query %d label %v outside [0,1]", qi, c.Label)
			}
			if c.Path.Source() != q.Source || c.Path.Destination() != q.Destination {
				t.Fatalf("query %d candidate endpoints mismatch", qi)
			}
			if math.Abs(c.Label-1) < 1e-12 {
				hasTruth = true
			}
			if c.LengthRatio <= 0 || c.LengthRatio > 1+1e-12 {
				t.Fatalf("query %d LengthRatio %v outside (0,1]", qi, c.LengthRatio)
			}
			if c.TimeRatio <= 0 || c.TimeRatio > 1+1e-12 {
				t.Fatalf("query %d TimeRatio %v outside (0,1]", qi, c.TimeRatio)
			}
		}
		if !hasTruth {
			t.Fatalf("query %d lacks a label-1 candidate despite IncludeTruth", qi)
		}
	}
}

func TestGenerateDTkDIIsMoreDiverse(t *testing.T) {
	g := testNet(t)
	trips := testTrips(t, g, 5)
	plain, err := Generate(g, trips, Config{Strategy: TkDI, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	diverse, err := Generate(g, trips, Config{Strategy: DTkDI, K: 5, Threshold: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	sp, sd := meanDiversity(g, plain), meanDiversity(g, diverse)
	if sd > sp+1e-9 {
		t.Fatalf("D-TkDI mean pairwise similarity %.3f should be <= TkDI %.3f", sd, sp)
	}
}

// meanDiversity is the mean pairwise weighted Jaccard similarity between
// candidates of the same query.
func meanDiversity(g *roadnet.Graph, queries []Query) float64 {
	sim := pathsim.WeightedJaccardSim(g)
	var sum float64
	var n int
	for _, q := range queries {
		for i := range q.Candidates {
			for j := i + 1; j < len(q.Candidates); j++ {
				sum += sim(q.Candidates[i].Path, q.Candidates[j].Path)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	g := testNet(t)
	trips := testTrips(t, g, 2)
	if _, err := Generate(g, trips, Config{Strategy: TkDI, K: 0}); err == nil {
		t.Fatal("K=0 should be rejected")
	}
	if _, err := Generate(g, trips, Config{Strategy: Strategy(99), K: 3}); err == nil {
		t.Fatal("unknown strategy should be rejected")
	}
}

func TestGenerateLabelsOrderedByOverlap(t *testing.T) {
	// The trajectory path itself must have the top label in each query.
	g := testNet(t)
	trips := testTrips(t, g, 4)
	queries, err := Generate(g, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		best := -1.0
		for _, c := range q.Candidates {
			if c.Label > best {
				best = c.Label
			}
		}
		if math.Abs(best-1) > 1e-12 {
			t.Fatalf("query %d best label %v, want 1 (truth included)", qi, best)
		}
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	g := testNet(t)
	trips := testTrips(t, g, 6)
	queries, err := Generate(g, trips, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	train, test := Split(queries, 0.25, 7)
	if len(train)+len(test) != len(queries) {
		t.Fatalf("split sizes %d+%d != %d", len(train), len(test), len(queries))
	}
	wantTest := int(float64(len(queries)) * 0.25)
	if len(test) != wantTest {
		t.Fatalf("test size %d, want %d", len(test), wantTest)
	}
}

func TestSplitDeterministic(t *testing.T) {
	g := testNet(t)
	trips := testTrips(t, g, 4)
	queries, _ := Generate(g, trips, DefaultConfig())
	tr1, te1 := Split(queries, 0.5, 9)
	tr2, te2 := Split(queries, 0.5, 9)
	if len(tr1) != len(tr2) || len(te1) != len(te2) {
		t.Fatal("same seed produced different split sizes")
	}
	for i := range te1 {
		if te1[i].Source != te2[i].Source || te1[i].Destination != te2[i].Destination {
			t.Fatal("same seed produced different splits")
		}
	}
}

func TestSplitClampsFraction(t *testing.T) {
	g := testNet(t)
	trips := testTrips(t, g, 2)
	queries, _ := Generate(g, trips, DefaultConfig())
	train, test := Split(queries, -0.5, 1)
	if len(test) != 0 || len(train) != len(queries) {
		t.Fatal("negative fraction should put everything in train")
	}
	train, test = Split(queries, 2.0, 1)
	if len(train) != 0 || len(test) != len(queries) {
		t.Fatal("fraction >1 should put everything in test")
	}
}

func TestStrategyString(t *testing.T) {
	if TkDI.String() != "TkDI" || DTkDI.String() != "D-TkDI" {
		t.Fatalf("strategy names: %s, %s", TkDI, DTkDI)
	}
}
