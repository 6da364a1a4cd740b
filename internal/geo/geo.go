// Package geo provides lightweight planar/spherical geometry primitives for
// spatial road networks: points in WGS84-like lon/lat coordinates, distance
// functions and interpolation.
//
// Distances are returned in meters. For the small regional extents used by
// road networks (tens of kilometers) the fast equirectangular approximation
// is accurate to well under 0.1% and is the default used by the rest of the
// library; Haversine is available when full great-circle accuracy is needed.
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by spherical formulas.
const EarthRadiusMeters = 6371008.8

// Point is a geographic coordinate. Lon and Lat are in decimal degrees.
type Point struct {
	Lon float64
	Lat float64
}

// String renders the point as "(lon,lat)" with 6 decimals (~0.1 m).
func (p Point) String() string {
	return fmt.Sprintf("(%.6f,%.6f)", p.Lon, p.Lat)
}

// Haversine returns the great-circle distance between a and b in meters.
func Haversine(a, b Point) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	return 2 * EarthRadiusMeters * math.Asin(math.Min(1, math.Sqrt(h)))
}

// Distance returns the equirectangular-approximation distance between a and
// b in meters. It is the default metric for nearby points.
func Distance(a, b Point) float64 {
	meanLat := (a.Lat + b.Lat) / 2 * math.Pi / 180
	dx := (b.Lon - a.Lon) * math.Pi / 180 * math.Cos(meanLat)
	dy := (b.Lat - a.Lat) * math.Pi / 180
	return EarthRadiusMeters * math.Hypot(dx, dy)
}

// Lerp linearly interpolates between a (t=0) and b (t=1).
func Lerp(a, b Point, t float64) Point {
	return Point{
		Lon: a.Lon + (b.Lon-a.Lon)*t,
		Lat: a.Lat + (b.Lat-a.Lat)*t,
	}
}
