// Command analyze is the plumbing behind scripts/paper/run_all.sh: it
// parses the experiments.json grid and aggregates pathrank-load reports
// into the paper-grade artifacts.
//
// Two modes:
//
//	analyze -config experiments.json -plan
//	  prints the grid as tab-delimited lines for the shell driver:
//	  a "settings" line (repeats, duration, rate, seed) and one "exp"
//	  line per experiment (name, serve flags, load flags).
//
//	analyze -config experiments.json -results DIR -repeats N
//	  reads DIR/<name>_rep<i>.json (one pathrank-load -json report per
//	  repeat) and writes DIR/results.csv (per-run rows), DIR/summary.csv,
//	  DIR/summary.md and DIR/summary.tex (per-experiment mean and sample
//	  standard deviation over the repeats). Any missing or malformed
//	  report, one that counts a failed request, or an implausible one
//	  (zero requests, no achieved rate, non-monotone quantiles), fails the
//	  run with a non-zero exit.
//
// It uses only the standard library, so the grid runner needs nothing
// beyond the Go toolchain that builds the repo.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"time"
)

// gridConfig mirrors experiments.json.
type gridConfig struct {
	Repeats     int          `json:"repeats"`
	Duration    string       `json:"duration"`
	Rate        float64      `json:"rate"`
	Seed        int64        `json:"seed"`
	Experiments []experiment `json:"experiments"`
}

type experiment struct {
	Name  string   `json:"name"`
	Serve []string `json:"serve"`
	Load  []string `json:"load"`
}

// loadReport is the subset of the pathrank-load -json report the
// analysis consumes.
type loadReport struct {
	Requests int64            `json:"requests"`
	Dropped  int64            `json:"dropped_arrivals"`
	Errors   map[string]int64 `json:"errors"`
	RPS      float64          `json:"achieved_rps"`
	Latency  struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P95  float64 `json:"p95"`
		P99  float64 `json:"p99"`
		P999 float64 `json:"p999"`
	} `json:"latency_ms"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

func main() {
	log.SetFlags(0)
	log.SetPrefix("analyze: ")

	config := flag.String("config", "experiments.json", "experiment grid definition")
	plan := flag.Bool("plan", false, "print the grid for the shell driver and exit")
	results := flag.String("results", "", "aggregate pathrank-load reports from this directory")
	repeats := flag.Int("repeats", 0, "repeats actually run (overrides the config; for -results)")
	flag.Parse()

	grid, err := loadGrid(*config)
	if err != nil {
		log.Fatal(err)
	}
	switch {
	case *plan:
		printPlan(grid)
	case *results != "":
		n := grid.Repeats
		if *repeats > 0 {
			n = *repeats
		}
		if err := aggregate(grid, *results, n); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("nothing to do: pass -plan or -results DIR")
	}
}

// loadGrid reads and validates the experiment grid.
func loadGrid(path string) (*gridConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var grid gridConfig
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&grid); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if grid.Repeats < 1 {
		return nil, fmt.Errorf("%s: repeats must be >= 1", path)
	}
	if _, err := time.ParseDuration(grid.Duration); err != nil {
		return nil, fmt.Errorf("%s: duration: %w", path, err)
	}
	if grid.Rate <= 0 {
		return nil, fmt.Errorf("%s: rate must be positive", path)
	}
	if len(grid.Experiments) == 0 {
		return nil, fmt.Errorf("%s: no experiments", path)
	}
	seen := make(map[string]bool)
	for _, e := range grid.Experiments {
		if !nameRe.MatchString(e.Name) {
			return nil, fmt.Errorf("%s: experiment name %q (want lowercase letters, digits, dashes)", path, e.Name)
		}
		if seen[e.Name] {
			return nil, fmt.Errorf("%s: duplicate experiment %q", path, e.Name)
		}
		seen[e.Name] = true
		for _, arg := range append(append([]string{}, e.Serve...), e.Load...) {
			if strings.ContainsAny(arg, " \t\n") {
				return nil, fmt.Errorf("%s: experiment %q: flag token %q contains whitespace", path, e.Name, arg)
			}
		}
	}
	return &grid, nil
}

// printPlan emits the tab-delimited grid for the shell driver.
func printPlan(grid *gridConfig) {
	fmt.Printf("settings\t%d\t%s\t%g\t%d\n", grid.Repeats, grid.Duration, grid.Rate, grid.Seed)
	for _, e := range grid.Experiments {
		fmt.Printf("exp\t%s\t%s\t%s\n", e.Name, strings.Join(e.Serve, " "), strings.Join(e.Load, " "))
	}
}

// column describes one aggregated metric.
type column struct {
	name string
	get  func(*loadReport) float64
}

var columns = []column{
	{"rps", func(r *loadReport) float64 { return r.RPS }},
	{"mean_ms", func(r *loadReport) float64 { return r.Latency.Mean }},
	{"p50_ms", func(r *loadReport) float64 { return r.Latency.P50 }},
	{"p95_ms", func(r *loadReport) float64 { return r.Latency.P95 }},
	{"p99_ms", func(r *loadReport) float64 { return r.Latency.P99 }},
	{"p999_ms", func(r *loadReport) float64 { return r.Latency.P999 }},
}

// aggregate reads every repeat of every experiment and writes the CSVs
// and summary tables.
func aggregate(grid *gridConfig, dir string, repeats int) error {
	perRun := &strings.Builder{}
	fmt.Fprintf(perRun, "experiment,repeat,requests,dropped")
	for _, c := range columns {
		fmt.Fprintf(perRun, ",%s", c.name)
	}
	perRun.WriteByte('\n')
	summaryCSV := &strings.Builder{}
	fmt.Fprintf(summaryCSV, "experiment,repeats")
	for _, c := range columns {
		fmt.Fprintf(summaryCSV, ",%s_mean,%s_std", c.name, c.name)
	}
	summaryCSV.WriteByte('\n')

	type aggRow struct {
		name      string
		mean, std []float64
	}
	var rows []aggRow

	for _, e := range grid.Experiments {
		samples := make([][]float64, len(columns))
		for rep := 0; rep < repeats; rep++ {
			path := filepath.Join(dir, fmt.Sprintf("%s_rep%d.json", e.Name, rep))
			rpt, err := readReport(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(perRun, "%s,%d,%d,%d", e.Name, rep, rpt.Requests, rpt.Dropped)
			for i, c := range columns {
				v := c.get(rpt)
				samples[i] = append(samples[i], v)
				fmt.Fprintf(perRun, ",%.4f", v)
			}
			perRun.WriteByte('\n')
		}
		row := aggRow{name: e.Name}
		fmt.Fprintf(summaryCSV, "%s,%d", e.Name, repeats)
		for _, s := range samples {
			m, sd := meanStd(s)
			row.mean = append(row.mean, m)
			row.std = append(row.std, sd)
			fmt.Fprintf(summaryCSV, ",%.4f,%.4f", m, sd)
		}
		summaryCSV.WriteByte('\n')
		rows = append(rows, row)
	}

	md := &strings.Builder{}
	fmt.Fprintf(md, "# Experiment grid summary\n\n")
	fmt.Fprintf(md, "%d repeats per configuration; cells are mean ± sample std.\n\n", repeats)
	fmt.Fprintf(md, "| experiment |")
	for _, c := range columns {
		fmt.Fprintf(md, " %s |", c.name)
	}
	fmt.Fprintf(md, "\n|---|")
	for range columns {
		fmt.Fprintf(md, "---|")
	}
	md.WriteByte('\n')
	for _, row := range rows {
		fmt.Fprintf(md, "| %s |", row.name)
		for i := range columns {
			fmt.Fprintf(md, " %.2f ± %.2f |", row.mean[i], row.std[i])
		}
		md.WriteByte('\n')
	}

	tex := &strings.Builder{}
	fmt.Fprintf(tex, "%% generated by scripts/paper — %d repeats, mean $\\pm$ sample std\n", repeats)
	fmt.Fprintf(tex, "\\begin{tabular}{l%s}\n\\toprule\n", strings.Repeat("r", len(columns)))
	fmt.Fprintf(tex, "experiment")
	for _, c := range columns {
		fmt.Fprintf(tex, " & %s", strings.ReplaceAll(c.name, "_", "\\_"))
	}
	fmt.Fprintf(tex, " \\\\\n\\midrule\n")
	for _, row := range rows {
		fmt.Fprintf(tex, "%s", row.name)
		for i := range columns {
			fmt.Fprintf(tex, " & $%.2f \\pm %.2f$", row.mean[i], row.std[i])
		}
		fmt.Fprintf(tex, " \\\\\n")
	}
	fmt.Fprintf(tex, "\\bottomrule\n\\end{tabular}\n")

	for name, content := range map[string]string{
		"results.csv": perRun.String(),
		"summary.csv": summaryCSV.String(),
		"summary.md":  md.String(),
		"summary.tex": tex.String(),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("wrote results.csv, summary.csv, summary.md, summary.tex to %s\n", dir)
	return nil
}

// readReport loads one pathrank-load report and sanity-checks it: a run
// with a failed request or without an achieved rate measured something
// other than the configuration, so averaging it in would hide that.
func readReport(path string) (*loadReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("missing run artifact: %w", err)
	}
	var rpt loadReport
	if err := json.Unmarshal(raw, &rpt); err != nil {
		return nil, fmt.Errorf("%s: malformed report: %w", path, err)
	}
	if rpt.Requests <= 0 {
		return nil, fmt.Errorf("%s: report has zero completed requests", path)
	}
	for code, n := range rpt.Errors {
		if n > 0 {
			return nil, fmt.Errorf("%s: %d request(s) failed with %s", path, n, code)
		}
	}
	if !(rpt.RPS > 0) {
		return nil, fmt.Errorf("%s: achieved_rps is %g", path, rpt.RPS)
	}
	l := rpt.Latency
	if l.P50 <= 0 || l.P95 < l.P50 || l.P99 < l.P95 || l.P999 < l.P99 {
		return nil, fmt.Errorf("%s: implausible quantiles: %+v", path, l)
	}
	return &rpt, nil
}

// meanStd returns the mean and sample standard deviation (0 for n < 2).
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1))
}
