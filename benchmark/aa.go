package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// runAA runs each workload n times back to back, every run a process of
// its own with its own seed (as the acceptance check does), and writes
// AA.md: per metric the median and quartiles, the spread as a share of the
// median, and the gap between the medians of the first and second half of
// the runs, each next to the bound BENCHMARK.json allows. The raw columns
// show what the same runs look like without speed calibration.
func runAA(m *manifest, o options) error {
	n, seed := o.aa, o.seed
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "# A/A check\n\n")
	fmt.Fprintf(&sb, "`-aa %d -seconds %g -scale %g`, seeds %d..%d, %s.\n\n", n, o.seconds, o.scale, seed, seed+int64(n)-1, time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(&sb, "Machine: %d CPUs (%s), %s, GOMAXPROCS=%d.\n\n", runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(&sb, "Spread is (Q3-Q1)/median over the runs, quartiles as Python's `statistics.quantiles(n=4)`; "+
		"half gap is how much worse the median of the second half of the runs is than that of the first half (negative: better). "+
		"Both must stay within the bound; the rule for setting a bound is bound >= 2 x the gap measured here. "+
		"`load.mean_qps` is q/s from the plain sum of the calibrated request times, where `qps` takes every request at the median of its kind; "+
		"the raw columns are the same runs without speed calibration (`load.raw_qps`, from the plain sum, and `load.raw_p50_ms`).\n\n")

	worst := 0.0
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.Name {
			continue
		}
		runs := make([]map[string]metricValue, 0, n)
		for i := 0; i < n; i++ {
			rep, err := childRun(self, w.Name, seed+int64(i), o)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			runs = append(runs, rep)
			fmt.Fprintf(os.Stderr, "aa: %s run %d/%d qps=%.1f p50=%.4f p99=%.4f setup=%.3f\n", w.Name, i+1, n,
				rep["qps"].Value, rep["p50_ms"].Value, rep["p99_ms"].Value, rep["setup_s"].Value)
		}
		fmt.Fprintf(&sb, "## %s\n\n", w.Name)
		fmt.Fprintf(&sb, "| metric | unit | Q1 | median | Q3 | spread | half gap | bound | ok |\n|---|---|---|---|---|---|---|---|---|\n")
		row := func(name string, better string, bound float64) {
			vals := make([]float64, len(runs))
			for i, r := range runs {
				vals[i] = r[name].Value
			}
			q1, q2, q3 := quartiles(vals)
			spread := (q3 - q1) / q2
			first, second := median(vals[:len(vals)/2]), median(vals[len(vals)/2:])
			gap := (second - first) / first
			if better == "higher" {
				gap = -gap
			}
			ok := ""
			if bound > 0 {
				ok = "yes"
				// setup_s is exempt from the spread rule, not from the gap rule.
				if (spread > bound && name != "setup_s") || gap > bound {
					ok = "NO"
				}
				if name != "setup_s" && spread/bound > worst {
					worst = spread / bound
				}
			}
			b := "-"
			if bound > 0 {
				b = fmt.Sprintf("%.2f", bound)
			}
			fmt.Fprintf(&sb, "| %s | %s | %.4g | %.4g | %.4g | %.2f%% | %+.2f%% | %s | %s |\n",
				name, runs[0][name].Unit, q1, q2, q3, 100*spread, 100*gap, b, ok)
		}
		for _, s := range m.EndToEnd {
			row(s.Name, s.Better, s.Bound)
		}
		row("load.mean_qps", "higher", 0)
		row("load.raw_qps", "higher", 0)
		row("load.raw_p50_ms", "lower", 0)
		row("load.p90_ms", "lower", 0)
		row("load.p95_ms", "lower", 0)
		row("calib.ref_ms_p50", "lower", 0)
		failed := 0.0
		for _, r := range runs {
			failed += r["load.failed"].Value
		}
		fmt.Fprintf(&sb, "\nFailed queries over all runs: %.0f. Stream hashes differ per seed; the served world is the same.\n\n", failed)
	}
	fmt.Fprintf(&sb, "Largest spread as a share of its bound: %.2f (target: below 0.33).\n", worst)
	if err := os.WriteFile("AA.md", []byte(sb.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "aa: wrote AA.md")
	return nil
}

// childRun runs one workload once, untraced, as a process of its own and
// returns its end-to-end and load metrics.
func childRun(self, workload string, seed int64, o options) (map[string]metricValue, error) {
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-scale", fmt.Sprint(o.scale), "-with-load", "-manifest", o.manifestPath, "-out", o.outDir)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w: %s", err, errb.String())
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) != "" {
			last = sc.Text()
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("unreadable result %q: %w", last, err)
	}
	return rep.Metrics, nil
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown CPU"
}
