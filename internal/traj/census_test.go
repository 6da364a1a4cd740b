package traj

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"pathrank/internal/roadnet"
)

// TestMatchCensusPinned pins map matching's output: 40 drivers × 5 trips,
// each sampled at 1 Hz under GPS noise of 0, 8 and 25 m, are matched on the
// 12×12 test grid and on the 56×56 world the benchmark serves, and one
// SHA-256 over every matched path (its edge IDs, then its Cost bits; a
// failed match hashes its error) must equal the constant. The constants
// were recorded while transitions and stitching still ran on a contraction
// hierarchy, so they also show that plain Dijkstra decodes the same paths.
// A change that has to move them changes what the matcher returns.
func TestMatchCensusPinned(t *testing.T) {
	world := roadnet.DefaultGenConfig()
	world.Rows, world.Cols = 56, 56
	world56, err := roadnet.Generate(world)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *roadnet.Graph
		want string
	}{
		{"grid12", testNet(t), "ad86bad7a45359a6828f8fd188306a425d08b97dce1abaeb87124e90d2c854c3"},
		{"world56", world56, "c5a873c5762dddc6978ee1b0b7c4d776bee5148e4539459b045de25eb8eb3ea3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			drivers := NewPopulation(PopulationConfig{NumDrivers: 40, Seed: 11})
			trips, err := GenerateTrips(tc.g, drivers, TripConfig{TripsPerDriver: 5, MinHops: 4, Seed: 12})
			if err != nil {
				t.Fatal(err)
			}
			m := NewMatcher(tc.g, DefaultMatchConfig())
			h := sha256.New()
			var buf [8]byte
			failed := 0
			for i, tr := range trips {
				for k, noise := range []float64{0, 8, 25} {
					recs := SampleGPS(tc.g, tr.Path, GPSConfig{IntervalSec: 1, NoiseStdM: noise, Seed: int64(3*i + k)})
					p, err := m.Match(recs)
					if err != nil {
						failed++
						h.Write([]byte(err.Error()))
						continue
					}
					for _, e := range p.Edges {
						binary.LittleEndian.PutUint32(buf[:4], uint32(e))
						h.Write(buf[:4])
					}
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Cost))
					h.Write(buf[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Fatalf("%d traces (%d failed): census hash %s, want %s", 3*len(trips), failed, got, tc.want)
			}
		})
	}
}
