package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the part of BENCHMARK.json this program reads: it is the one
// place metric names, units and bounds are written down, and every report
// is checked against it before it is printed.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadManifest(path string) (*manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(m.EndToEnd) == 0 || len(m.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: no metrics declared", path)
	}
	if len(m.Workloads) != len(workloads) {
		return nil, fmt.Errorf("%s: declares %d workloads, the program has %d", path, len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].Name {
			return nil, fmt.Errorf("%s: workload %d is %q, the program has %q", path, i, w.Name, workloads[i].Name)
		}
	}
	return &m, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildReport checks a finished run against the declared metrics and
// returns what to print. A run that sent fewer requests than planned, or
// that lacks a declared metric, or holds a value that is not a finite
// number, is an error: a short table must not pass for a result.
func buildReport(specs []metricSpec, values map[string]float64, planned, sent, queries, failed int) (*report, error) {
	if sent != planned {
		return nil, fmt.Errorf("sent %d of %d planned requests", sent, planned)
	}
	rep := &report{Correct: failed == 0, Attempted: queries, Failed: failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared but was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		rep.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	for name := range values {
		if _, ok := rep.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared", name)
		}
	}
	return rep, nil
}

// printTable writes a readable copy of the report.
func printTable(w io.Writer, title string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s\n", title)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, m.Value, m.Unit)
	}
}
