// Command mapmatch demonstrates the GPS-preprocessing pipeline on a
// generated network: it simulates trips, samples noisy 1 Hz GPS traces,
// recovers network paths with the HMM map matcher, and reports recovery
// quality against the ground-truth driven paths.
//
// Usage:
//
//	mapmatch -net net.gob -trips 20 -noise 8
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"pathrank/internal/pathsim"
	"pathrank/internal/roadnet"
	"pathrank/internal/spath"
	"pathrank/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mapmatch: ")

	netPath := flag.String("net", "net.gob", "road network file from netgen")
	nTrips := flag.Int("trips", 20, "number of trips to simulate and match")
	noise := flag.Float64("noise", 8, "GPS noise standard deviation in meters")
	interval := flag.Float64("interval", 1, "GPS sampling interval in seconds")
	seed := flag.Int64("seed", 1, "random seed")
	engineName := flag.String("engine", "ch", "shortest-path engine for matching: ch or dijkstra")
	flag.Parse()

	kind, err := spath.ParseEngineKind(*engineName)
	if err != nil {
		log.Fatal(err)
	}

	g, err := roadnet.LoadFile(*netPath)
	if err != nil {
		log.Fatal(err)
	}
	drivers := traj.NewPopulation(traj.PopulationConfig{NumDrivers: *nTrips, Seed: *seed})
	trips, err := traj.GenerateTrips(g, drivers, traj.TripConfig{
		TripsPerDriver: 1, MinHops: 5, Seed: *seed + 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	prepStart := time.Now()
	engine := spath.NewEngine(kind, g, spath.ByLength)
	fmt.Printf("engine: %s (preprocessed in %v)\n", engine.Kind(), time.Since(prepStart).Round(time.Millisecond))
	matcher := traj.NewMatcherEngine(g, traj.DefaultMatchConfig(), engine)

	// Ctrl-C aborts an in-flight Viterbi decode via the matcher's context
	// instead of waiting the trace out.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var simSum float64
	var records, matched int
	worst := 1.0
	for i, tr := range trips {
		if ctx.Err() != nil {
			log.Fatal("interrupted")
		}
		recs := traj.SampleGPS(g, tr.Path, traj.GPSConfig{
			IntervalSec: *interval, NoiseStdM: *noise, Seed: *seed + int64(100+i),
		})
		records += len(recs)
		got, err := matcher.MatchCtx(ctx, recs)
		if err != nil {
			if ctx.Err() != nil {
				log.Fatal("interrupted")
			}
			fmt.Printf("trip %d: match failed: %v\n", i, err)
			continue
		}
		matched++
		sim := pathsim.WeightedJaccard(g, got, tr.Path)
		simSum += sim
		if sim < worst {
			worst = sim
		}
	}
	if matched == 0 {
		log.Fatal("no trips matched")
	}
	fmt.Printf("network: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
	fmt.Printf("matched %d/%d trips from %d GPS records (noise %.0f m @ %.0f s)\n",
		matched, len(trips), records, *noise, *interval)
	fmt.Printf("weighted-Jaccard recovery: mean %.3f, worst %.3f\n",
		simSum/float64(matched), worst)
}
