package traj

import (
	"math"
	"slices"
	"testing"

	"pathrank/internal/geo"
	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

func testNet(t testing.TB) *roadnet.Graph {
	t.Helper()
	cfg := roadnet.GenConfig{
		Rows: 12, Cols: 12, SpacingM: 250, JitterFrac: 0.2,
		RemoveFrac: 0.08, ArterialEvery: 4, Motorway: true,
		Origin: geo.Point{Lon: 10, Lat: 57}, Seed: 21,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return g
}

func TestNewPopulationDiversity(t *testing.T) {
	drivers := NewPopulation(PopulationConfig{NumDrivers: 30, Seed: 1})
	if len(drivers) != 30 {
		t.Fatalf("got %d drivers, want 30", len(drivers))
	}
	// Preferences must actually differ across drivers.
	allSame := true
	for _, d := range drivers[1:] {
		if d.WeightLength != drivers[0].WeightLength || d.WeightTime != drivers[0].WeightTime {
			allSame = false
			break
		}
	}
	if allSame {
		t.Fatal("population has identical preferences")
	}
	for _, d := range drivers {
		if d.WeightLength < 0 || d.WeightTime < 0 {
			t.Fatalf("driver %d has negative preference weights", d.ID)
		}
		for c, m := range d.CategoryMult {
			if m <= 0 {
				t.Fatalf("driver %d category %d multiplier %v", d.ID, c, m)
			}
		}
	}
}

func TestDriverCostPositive(t *testing.T) {
	g := testNet(t)
	drivers := NewPopulation(PopulationConfig{NumDrivers: 5, Seed: 2})
	for _, d := range drivers {
		for i := 0; i < g.NumEdges(); i += 7 {
			if c := d.Cost(g.Edge(roadnet.EdgeID(i))); !(c > 0) {
				t.Fatalf("driver %d edge %d cost %v", d.ID, i, c)
			}
		}
	}
}

func TestFamiliarBiasReducesCost(t *testing.T) {
	g := testNet(t)
	d := &Driver{WeightLength: 1, WeightTime: 1, FamiliarBias: 0.5,
		CategoryMult: [roadnet.NumCategories]float64{1, 1, 1, 1}}
	e := g.Edge(0)
	before := d.Cost(e)
	d.recordUse(spath.Path{Vertices: []roadnet.VertexID{e.From, e.To}, Edges: []roadnet.EdgeID{0}})
	after := d.Cost(e)
	if math.Abs(after-before*0.5) > 1e-9 {
		t.Fatalf("familiar cost %v, want %v", after, before*0.5)
	}
}

func TestGenerateTripsBasic(t *testing.T) {
	g := testNet(t)
	drivers := NewPopulation(PopulationConfig{NumDrivers: 6, Seed: 3})
	trips, err := GenerateTrips(g, drivers, TripConfig{TripsPerDriver: 3, MinHops: 4, Seed: 4})
	if err != nil {
		t.Fatalf("GenerateTrips: %v", err)
	}
	if len(trips) != 18 {
		t.Fatalf("got %d trips, want 18", len(trips))
	}
	for i, tr := range trips {
		if tr.Path.Len() < 4 {
			t.Fatalf("trip %d has %d hops, want >=4", i, tr.Path.Len())
		}
		if err := tr.Path.Validate(g); err != nil {
			t.Fatalf("trip %d invalid path: %v", i, err)
		}
	}
}

func TestTripsAreOftenNonOptimal(t *testing.T) {
	// The substitution argument: synthetic drivers, like real local
	// drivers, must frequently drive paths that are neither shortest nor
	// fastest.
	g := testNet(t)
	drivers := NewPopulation(PopulationConfig{NumDrivers: 15, Seed: 5})
	trips, err := GenerateTrips(g, drivers, TripConfig{TripsPerDriver: 4, MinHops: 8, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	notShortest, notFastest := NonOptimalFraction(g, trips)
	if notShortest < 0.25 {
		t.Errorf("only %.0f%% of trips deviate from the shortest path; want >=25%%", notShortest*100)
	}
	if notFastest < 0.1 {
		t.Errorf("only %.0f%% of trips deviate from the fastest path; want >=10%%", notFastest*100)
	}
}

func TestSampleGPSCoversTrip(t *testing.T) {
	g := testNet(t)
	p, err := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()/2), spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	recs := SampleGPS(g, p, GPSConfig{IntervalSec: 1, NoiseStdM: 5, Seed: 7})
	if len(recs) < 2 {
		t.Fatalf("only %d GPS records", len(recs))
	}
	// Timestamps strictly increase except possibly the final endpoint.
	for i := 1; i < len(recs)-1; i++ {
		if recs[i].TimeOffset <= recs[i-1].TimeOffset {
			t.Fatalf("timestamps not increasing at %d: %v then %v", i, recs[i-1].TimeOffset, recs[i].TimeOffset)
		}
	}
	// Expected count ~ trip duration / interval.
	duration := p.Time(g)
	if float64(len(recs)) < duration*0.8 || float64(len(recs)) > duration*1.5+2 {
		t.Fatalf("%d records for a %.0f s trip at 1 Hz", len(recs), duration)
	}
	// First and last samples should be near the endpoints.
	if d := geo.Distance(recs[0].Point, g.Vertex(p.Source()).Point); d > 50 {
		t.Fatalf("first sample %.0f m from source", d)
	}
	if d := geo.Distance(recs[len(recs)-1].Point, g.Vertex(p.Destination()).Point); d > 50 {
		t.Fatalf("last sample %.0f m from destination", d)
	}
}

func TestSampleGPSEmptyPath(t *testing.T) {
	g := testNet(t)
	if recs := SampleGPS(g, spath.Path{}, GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: 1}); recs != nil {
		t.Fatalf("empty path should produce no records, got %d", len(recs))
	}
}

func TestSampleGPSNoiseScales(t *testing.T) {
	g := testNet(t)
	p, _ := spath.Dijkstra(g, 0, roadnet.VertexID(g.NumVertices()-1), spath.ByLength)
	noiseless := SampleGPS(g, p, GPSConfig{IntervalSec: 2, NoiseStdM: 0, Seed: 8})
	noisy := SampleGPS(g, p, GPSConfig{IntervalSec: 2, NoiseStdM: 25, Seed: 8})
	if len(noiseless) != len(noisy) {
		t.Fatalf("record counts differ: %d vs %d", len(noiseless), len(noisy))
	}
	var sumD float64
	for i := range noisy {
		sumD += geo.Distance(noiseless[i].Point, noisy[i].Point)
	}
	mean := sumD / float64(len(noisy))
	if mean < 10 || mean > 60 {
		t.Fatalf("mean displacement %.1f m for sigma=25, want ~31", mean)
	}
}

func TestMapMatchRecoversCleanPath(t *testing.T) {
	g := testNet(t)
	p, err := spath.Dijkstra(g, 5, roadnet.VertexID(g.NumVertices()-10), spath.ByLength)
	if err != nil {
		t.Fatal(err)
	}
	recs := SampleGPS(g, p, GPSConfig{IntervalSec: 1, NoiseStdM: 0, Seed: 9})
	m := NewMatcher(g, DefaultMatchConfig())
	got, err := m.Match(recs)
	if err != nil {
		t.Fatalf("Match: %v", err)
	}
	sim := pathsim.WeightedJaccard(g, got, p)
	if sim < 0.95 {
		t.Fatalf("noise-free match similarity %.3f, want >=0.95", sim)
	}
}

func TestMapMatchRecoversNoisyPath(t *testing.T) {
	g := testNet(t)
	drivers := NewPopulation(PopulationConfig{NumDrivers: 3, Seed: 10})
	trips, err := GenerateTrips(g, drivers, TripConfig{TripsPerDriver: 2, MinHops: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(g, DefaultMatchConfig())
	var totalSim float64
	for i, tr := range trips {
		recs := SampleGPS(g, tr.Path, GPSConfig{IntervalSec: 1, NoiseStdM: 8, Seed: int64(100 + i)})
		got, err := m.Match(recs)
		if err != nil {
			t.Fatalf("trip %d: %v", i, err)
		}
		totalSim += pathsim.WeightedJaccard(g, got, tr.Path)
	}
	mean := totalSim / float64(len(trips))
	if mean < 0.8 {
		t.Fatalf("mean matched similarity %.3f with 8 m noise, want >=0.8", mean)
	}
}

func TestMatchEmptyStream(t *testing.T) {
	g := testNet(t)
	m := NewMatcher(g, DefaultMatchConfig())
	if _, err := m.Match(nil); err == nil {
		t.Fatal("expected error for empty stream")
	}
}

func TestGridIndexNearest(t *testing.T) {
	g := testNet(t)
	idx := newGridIndex(g, 300)
	for v := 0; v < g.NumVertices(); v += 13 {
		pt := g.Vertex(roadnet.VertexID(v)).Point
		near := idx.nearest(pt, 3)
		if len(near) == 0 {
			t.Fatalf("no neighbors found for vertex %d", v)
		}
		if near[0] != roadnet.VertexID(v) {
			t.Fatalf("nearest to vertex %d's location is %d", v, near[0])
		}
	}
}

func TestSubsampleKeepsEndpoints(t *testing.T) {
	m := NewMatcher(testNet(t), MatchConfig{StrideSec: 10, Candidates: 2, SigmaM: 10, BetaM: 60})
	recs := make([]GPSRecord, 50)
	for i := range recs {
		recs[i] = GPSRecord{TimeOffset: float64(i)}
	}
	out := m.subsample(recs)
	if out[0].TimeOffset != 0 || out[len(out)-1].TimeOffset != 49 {
		t.Fatal("subsample must keep first and last records")
	}
	if len(out) >= len(recs) {
		t.Fatalf("subsample did not thin: %d of %d", len(out), len(recs))
	}
	for i := 1; i < len(out)-1; i++ {
		if out[i].TimeOffset-out[i-1].TimeOffset < 10 {
			t.Fatalf("gap %v < stride", out[i].TimeOffset-out[i-1].TimeOffset)
		}
	}
}

func TestGenerateTripsHomeAreas(t *testing.T) {
	g := testNet(t)
	drivers := NewPopulation(PopulationConfig{NumDrivers: 6, Seed: 71})
	trips, err := GenerateTrips(g, drivers, TripConfig{
		TripsPerDriver: 5, MinHops: 3, HomeRadiusM: 1200, Seed: 72,
	})
	if err != nil {
		t.Fatalf("GenerateTrips with home areas: %v", err)
	}
	// All of a driver's trip origins must lie within a small disc: compute
	// the max pairwise distance between origins per driver.
	byDriver := map[int][]geo.Point{}
	for _, tr := range trips {
		byDriver[tr.DriverID] = append(byDriver[tr.DriverID], g.Vertex(tr.Path.Source()).Point)
	}
	for id, pts := range byDriver {
		for i := range pts {
			for j := i + 1; j < len(pts); j++ {
				if d := geo.Distance(pts[i], pts[j]); d > 2*1200+1 {
					t.Fatalf("driver %d has origins %.0f m apart, exceeding the home disc", id, d)
				}
			}
		}
	}
}

func TestGenerateTripsHomeAreasDisabledByDefault(t *testing.T) {
	g := testNet(t)
	drivers := NewPopulation(PopulationConfig{NumDrivers: 20, Seed: 73})
	trips, err := GenerateTrips(g, drivers, TripConfig{TripsPerDriver: 2, MinHops: 3, Seed: 74})
	if err != nil {
		t.Fatal(err)
	}
	// Without home areas, origins should span most of the network's extent.
	span := func(lons []float64) float64 { return slices.Max(lons) - slices.Min(lons) }
	var origins, all []float64
	for _, tr := range trips {
		origins = append(origins, g.Vertex(tr.Path.Source()).Point.Lon)
	}
	for v := 0; v < g.NumVertices(); v++ {
		all = append(all, g.Vertex(roadnet.VertexID(v)).Point.Lon)
	}
	if span(origins) < 0.5*span(all) {
		t.Fatal("random origins should cover a wide longitude span")
	}
}
