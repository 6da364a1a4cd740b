package stream

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"pathrank/internal/obsv"
	"pathrank/internal/serve"
)

// TestOperationsDocCoversMetrics diffs the metrics reference table in
// docs/OPERATIONS.md against the live registry. It builds the same
// process-wide registry pathrank-serve does (server + pipeline on one
// registry), scrapes the family names from the exposition, and requires
// the documented set and the registered set to be identical — a metric
// added without a doc row, or a doc row for a renamed metric, fails here.
func TestOperationsDocCoversMetrics(t *testing.T) {
	art, _ := testWorld(t)
	reg := obsv.NewRegistry()

	svc, err := New(art, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(art, serve.Config{Metrics: reg, Ingest: svc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Family names come from the TYPE lines: every family renders its
	// HELP/TYPE header even before any traffic, so one scrape of a fresh
	// registry enumerates the full surface.
	var scrape strings.Builder
	reg.WritePrometheus(&scrape)
	registered := make(map[string]bool)
	for _, line := range strings.Split(scrape.String(), "\n") {
		if !strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
		if len(fields) != 2 {
			t.Fatalf("malformed TYPE line %q", line)
		}
		registered[fields[0]] = true
	}
	if len(registered) == 0 {
		t.Fatal("fresh registry rendered no metric families")
	}

	documented := docMetricNames(t, "../../docs/OPERATIONS.md")

	for name := range registered {
		if _, ok := documented[name]; !ok {
			t.Errorf("metric %s is registered but missing from the docs/OPERATIONS.md reference table", name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OPERATIONS.md documents %s, which is not in the registry", name)
		}
	}

	// The cache-event labels are a fixed set the server registers up front;
	// each must be named in its row.
	const events = "pathrank_cache_events_total"
	var labels int
	for _, line := range strings.Split(scrape.String(), "\n") {
		value, ok := strings.CutPrefix(line, events+`{event="`)
		if !ok {
			continue
		}
		value, _, _ = strings.Cut(value, `"`)
		labels++
		if !strings.Contains(documented[events], "`"+value+"`") {
			t.Errorf("docs/OPERATIONS.md's %s row does not name the event %q", events, value)
		}
	}
	if labels == 0 {
		t.Errorf("a fresh registry rendered no %s children", events)
	}
}

// docMetricNames extracts the metric names from the reference table in
// the runbook — table rows whose first cell is a backticked identifier —
// mapped to their whole row.
func docMetricNames(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	names := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.TrimPrefix(line, "| `")
		name, _, ok := strings.Cut(cell, "`")
		if !ok {
			t.Fatalf("unterminated backtick in table row %q", line)
		}
		// The flag-reference tables use the same shape; their first cells
		// start with '-', metric names never do.
		if strings.HasPrefix(name, "-") || !strings.Contains(line, "|") {
			continue
		}
		// Only rows from the metrics table: four columns whose second cell
		// is a metric type.
		cols := strings.Split(line, "|")
		if len(cols) < 4 {
			continue
		}
		typ := strings.TrimSpace(cols[2])
		if typ != "counter" && typ != "gauge" && typ != "histogram" {
			continue
		}
		names[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 {
		t.Fatalf("no metric rows found in %s — table format changed?", path)
	}
	return names
}
