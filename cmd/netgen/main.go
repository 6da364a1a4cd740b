// Command netgen generates a synthetic road network and a simulated trip
// log, writing both to gob files for use by pathrank-train and the
// examples.
//
// Usage:
//
//	netgen -rows 20 -cols 25 -drivers 60 -trips 6 -out net.gob -trips-out trips.gob
package main

import (
	"bufio"
	"encoding/gob"
	"flag"
	"fmt"
	"log"
	"os"

	"pathrank/internal/geo"
	"pathrank/internal/roadnet"
	"pathrank/internal/traj"
)

// TripsFile is the on-disk format of a trip log.
type TripsFile struct {
	Trips []traj.Trip
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("netgen: ")

	rows := flag.Int("rows", 20, "grid rows")
	cols := flag.Int("cols", 25, "grid columns")
	spacing := flag.Float64("spacing", 250, "mean vertex spacing in meters")
	drivers := flag.Int("drivers", 60, "number of simulated drivers")
	trips := flag.Int("trips", 6, "trips per driver")
	minHops := flag.Int("min-hops", 5, "minimum path hops per trip")
	metro := flag.Bool("metro", false, "metro-scale preset: a ~25k-vertex grid with denser spacing (explicit -rows/-cols/-spacing/-drivers still win)")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "net.gob", "output path for the road network")
	tripsOut := flag.String("trips-out", "trips.gob", "output path for the trip log")
	flag.Parse()

	if *metro {
		// Presets only fill in what the user did not set explicitly.
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		if !set["rows"] {
			*rows = 160
		}
		if !set["cols"] {
			*cols = 160
		}
		if !set["spacing"] {
			*spacing = 120
		}
		if !set["drivers"] {
			*drivers = 200
		}
	}

	cfg := roadnet.GenConfig{
		Rows: *rows, Cols: *cols, SpacingM: *spacing, JitterFrac: 0.25,
		RemoveFrac: 0.10, ArterialEvery: 5, Motorway: true,
		Origin: geo.Point{Lon: 9.9187, Lat: 57.0488}, Seed: *seed,
	}
	g, err := roadnet.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := g.SaveFile(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d vertices, %d edges -> %s\n", g.NumVertices(), g.NumEdges(), *out)

	pop := traj.NewPopulation(traj.PopulationConfig{NumDrivers: *drivers, Seed: *seed + 1})
	tr, err := traj.GenerateTrips(g, pop, traj.TripConfig{
		TripsPerDriver: *trips, MinHops: *minHops, Seed: *seed + 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := saveTrips(*tripsOut, tr); err != nil {
		log.Fatal(err)
	}
	ns, nf := traj.NonOptimalFraction(g, tr)
	fmt.Printf("trips: %d (%.0f%% not-shortest, %.0f%% not-fastest) -> %s\n",
		len(tr), ns*100, nf*100, *tripsOut)
}

func saveTrips(path string, trips []traj.Trip) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := gob.NewEncoder(w).Encode(TripsFile{Trips: trips}); err != nil {
		f.Close()
		return fmt.Errorf("encode trips: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
