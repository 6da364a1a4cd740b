package traj

import (
	"math"
	"math/rand"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
)

// GPSRecord is one raw positioning sample.
type GPSRecord struct {
	Point geo.Point
	// TimeOffset is seconds since the start of the trip.
	TimeOffset float64
}

// GPSConfig parameterizes GPS sampling along a driven path.
type GPSConfig struct {
	IntervalSec float64 // sampling period (1.0 = 1 Hz, as in the paper's data)
	NoiseStdM   float64 // standard deviation of positional noise in meters
	Seed        int64
}

// SampleGPS walks along the trip path at each edge's free-flow speed and
// emits noisy position samples every IntervalSec. The first and last points
// of the path are always sampled.
func SampleGPS(g *roadnet.Graph, p spath.Path, cfg GPSConfig) []GPSRecord {
	if p.Len() == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	latPerM := 1.0 / 111320.0

	var records []GPSRecord
	emit := func(pt geo.Point, ts float64) {
		lonPerM := 1.0 / (111320.0 * math.Cos(pt.Lat*math.Pi/180))
		noisy := geo.Point{
			Lon: pt.Lon + rng.NormFloat64()*cfg.NoiseStdM*lonPerM,
			Lat: pt.Lat + rng.NormFloat64()*cfg.NoiseStdM*latPerM,
		}
		records = append(records, GPSRecord{Point: noisy, TimeOffset: ts})
	}

	elapsed := 0.0
	nextSample := 0.0
	emit(g.Vertex(p.Source()).Point, 0)
	nextSample += cfg.IntervalSec

	for _, eid := range p.Edges {
		e := g.Edge(eid)
		from := g.Vertex(e.From).Point
		to := g.Vertex(e.To).Point
		edgeEnd := elapsed + e.Time
		for nextSample < edgeEnd {
			frac := (nextSample - elapsed) / e.Time
			emit(geo.Lerp(from, to, frac), nextSample)
			nextSample += cfg.IntervalSec
		}
		elapsed = edgeEnd
	}
	emit(g.Vertex(p.Destination()).Point, elapsed)
	return records
}
