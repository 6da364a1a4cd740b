// Command experiments regenerates the paper's tables and figure-style
// sweeps on the synthetic substrate and prints them as aligned text tables.
//
// Usage:
//
//	experiments [-quick] [table1|table2|sweep-k|sweep-diversity|sweep-m|
//	             sweep-trainsize|baselines|ablation-body|ablation-multitask|all]
//
// With no arguments it runs "all". -quick runs the small smoke-test world
// at its schedule, the rows internal/experiments' golden test pins.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"pathrank/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	quick := flag.Bool("quick", false, "use the small smoke-test world")
	flag.Parse()

	cfg, sched := experiments.DefaultWorldConfig(), experiments.DefaultSchedule()
	if *quick {
		cfg, sched = experiments.QuickWorldConfig(), experiments.QuickSchedule()
	}

	start := time.Now()
	w, err := experiments.NewWorld(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("world: %d vertices, %d edges, %d trips (built in %v)\n\n",
		w.G.NumVertices(), w.G.NumEdges(), len(w.Trips), time.Since(start).Round(time.Millisecond))

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range experiments.Experiments {
			want = append(want, e.Name)
		}
	}
	for _, name := range want {
		i := slices.IndexFunc(experiments.Experiments, func(e experiments.Experiment) bool { return e.Name == name })
		if i < 0 {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		e := experiments.Experiments[i]
		t0 := time.Now()
		rows, err := e.Run(w, sched)
		if err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Printf("== %s (%v) ==\n", e.Name, time.Since(t0).Round(time.Second))
		for _, r := range rows {
			fmt.Println("  " + r.String())
		}
		fmt.Println()
	}
}
