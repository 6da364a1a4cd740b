// Command pathrank-bench is the repository's serving benchmark: one
// workload per invocation, set-up → warm-up → one timed phase with tracing
// off → output verification → (with --trace 1) a traced replay. The last
// line of standard output is the result as one JSON object; a readable
// table goes to standard error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

const defaultSeed = 1

// options are the command-line flags.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	scale        float64
	aa           int
	withLoad     bool
	manifestPath string
	outDir       string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: crosstown_uncached, local_batch_k32, zipf_cached or sharded_mix")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed of the request stream; the served world does not depend on it")
	flag.Float64Var(&o.seconds, "seconds", 0, "length the timed phase is sized to (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics; 1 also replays with spans, writes out/<workload>.trace.json and prints the per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies every request count, for smoke runs")
	flag.IntVar(&o.aa, "aa", 0, "run every workload (or the one named) this many times back to back and write the A/A report")
	flag.BoolVar(&o.withLoad, "with-load", false, "with -trace 0, also print the load.*, calib.* and proc.* metrics (what -aa runs its children with)")
	flag.StringVar(&o.manifestPath, "manifest", "../BENCHMARK.json", "the benchmark's declaration")
	flag.StringVar(&o.outDir, "out", "out", "directory for traces and scratch artifacts")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "pathrank-bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// The box this is gated on has two cores; more would change how a
	// batch's candidate generation is spread.
	if runtime.NumCPU() >= 2 {
		runtime.GOMAXPROCS(2)
	}
	m, err := loadManifest(o.manifestPath)
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(m.RunSeconds)
	}
	if o.scale <= 0 {
		return fmt.Errorf("-scale must be positive")
	}
	if o.aa > 0 {
		return runAA(m, o)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runOnce(runConfig{Workload: w, Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Trace: o.trace == 1, OutDir: o.outDir})
	if err != nil {
		return err
	}
	check := func(specs []metricSpec, values map[string]float64) (*report, error) {
		return buildReport(specs, values, len(res.plan.Requests), len(res.timed.rawMs), res.plan.queries(), res.failed)
	}
	specs, values := m.EndToEnd, res.endToEnd()
	switch {
	case o.trace == 1:
		specs, values = m.PerLayer, res.layers
	case o.withLoad:
		specs = append([]metricSpec(nil), specs...)
		load := res.loadMetrics()
		for _, s := range m.PerLayer {
			if v, ok := load[s.Name]; ok {
				specs = append(specs, s)
				values[s.Name] = v
			}
		}
	}
	rep, err := check(specs, values)
	if err != nil {
		return err
	}
	title := fmt.Sprintf("%s seed=%d stream=%s requests=%d queries=%d failed=%d GOMAXPROCS=%d",
		w.Name, o.seed, res.plan.Hash, len(res.plan.Requests), res.plan.queries(), res.failed, runtime.GOMAXPROCS(0))
	printTable(os.Stderr, title, rep)
	if o.trace == 1 {
		// Both tables are useful to a person; only the declared set is printed as the result.
		e2e, err := check(m.EndToEnd, res.endToEnd())
		if err != nil {
			return err
		}
		printTable(os.Stderr, "end to end", e2e)
		fmt.Fprintln(os.Stderr, "trace:", res.traceFile)
	}
	for _, why := range res.reasons {
		fmt.Fprintln(os.Stderr, "failed:", why)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.failed > 0 {
		return fmt.Errorf("%d of %d queries failed", res.failed, res.plan.queries())
	}
	return nil
}
