package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineKnownDistance(t *testing.T) {
	// Aalborg to Copenhagen, roughly 223 km great-circle.
	aalborg := Point{Lon: 9.9187, Lat: 57.0488}
	copenhagen := Point{Lon: 12.5683, Lat: 55.6761}
	d := Haversine(aalborg, copenhagen)
	if d < 215_000 || d > 232_000 {
		t.Fatalf("Haversine(Aalborg, Copenhagen) = %.0f m, want ~223 km", d)
	}
}

func TestHaversineZero(t *testing.T) {
	p := Point{Lon: 9.92, Lat: 57.05}
	if d := Haversine(p, p); d != 0 {
		t.Fatalf("Haversine(p,p) = %v, want 0", d)
	}
}

func TestDistanceMatchesHaversineNearby(t *testing.T) {
	a := Point{Lon: 9.9187, Lat: 57.0488}
	b := Point{Lon: 9.9350, Lat: 57.0600}
	h := Haversine(a, b)
	e := Distance(a, b)
	if math.Abs(h-e)/h > 0.001 {
		t.Fatalf("equirectangular %.2f vs haversine %.2f differ by >0.1%%", e, h)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2 float64) bool {
		a := Point{Lon: math.Mod(lon1, 10) + 9, Lat: math.Mod(lat1, 2) + 56}
		b := Point{Lon: math.Mod(lon2, 10) + 9, Lat: math.Mod(lat2, 2) + 56}
		return almostEqual(Distance(a, b), Distance(b, a), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceTriangleInequalityProperty(t *testing.T) {
	f := func(x1, y1, x2, y2, x3, y3 float64) bool {
		norm := func(v float64, span float64) float64 { return math.Mod(math.Abs(v), span) }
		a := Point{Lon: 9 + norm(x1, 1), Lat: 56 + norm(y1, 1)}
		b := Point{Lon: 9 + norm(x2, 1), Lat: 56 + norm(y2, 1)}
		c := Point{Lon: 9 + norm(x3, 1), Lat: 56 + norm(y3, 1)}
		return Distance(a, c) <= Distance(a, b)+Distance(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerpEndpoints(t *testing.T) {
	a := Point{Lon: 1, Lat: 2}
	b := Point{Lon: 3, Lat: 6}
	if got := Lerp(a, b, 0); got != a {
		t.Fatalf("Lerp(t=0) = %v, want %v", got, a)
	}
	if got := Lerp(a, b, 1); got != b {
		t.Fatalf("Lerp(t=1) = %v, want %v", got, b)
	}
	mid := Lerp(a, b, 0.5)
	if !almostEqual(mid.Lon, 2, 1e-12) || !almostEqual(mid.Lat, 4, 1e-12) {
		t.Fatalf("Lerp(t=0.5) = %v, want (2,4)", mid)
	}
}
