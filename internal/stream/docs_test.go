package stream

import (
	"bufio"
	"os"
	"strings"
	"testing"

	"pathrank/internal/obsv"
	"pathrank/internal/serve"
)

// TestOperationsDocCoversMetrics diffs each process's metrics reference
// table in docs/OPERATIONS.md against that process's live registry: the
// server's (serve.New) against § "Server metrics", the trainer's (New)
// against § "Trainer metrics". It scrapes the family names from a fresh
// exposition and requires the documented set and the registered set to be
// identical — a metric added without a doc row, a doc row for a renamed
// metric, or a row under the wrong process fails here.
func TestOperationsDocCoversMetrics(t *testing.T) {
	art, _ := testWorld(t)

	srv, err := serve.New(art, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	svc, err := New(art, Config{})
	if err != nil {
		t.Fatal(err)
	}

	for _, proc := range []struct {
		section string
		reg     *obsv.Registry
	}{
		{"Server metrics", srv.Metrics()},
		{"Trainer metrics", svc.obs.reg},
	} {
		scrape, registered := scrapeFamilies(t, proc.reg)
		documented := docMetricNames(t, "../../docs/OPERATIONS.md", proc.section)
		for name := range registered {
			if _, ok := documented[name]; !ok {
				t.Errorf("metric %s is registered but missing from docs/OPERATIONS.md § %q", name, proc.section)
			}
		}
		for name := range documented {
			if !registered[name] {
				t.Errorf("docs/OPERATIONS.md § %q documents %s, which is not in that registry", proc.section, name)
			}
		}

		// The cache-event labels are a fixed set the server registers up
		// front; each must be named in its row.
		const events = "pathrank_cache_events_total"
		if !registered[events] {
			continue
		}
		var labels int
		for _, line := range strings.Split(scrape, "\n") {
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
}

// scrapeFamilies renders reg and returns the exposition plus its family
// names, taken from the TYPE lines: every family renders its HELP/TYPE
// header even before any traffic, so one scrape of a fresh registry
// enumerates the full surface.
func scrapeFamilies(t *testing.T, reg *obsv.Registry) (string, map[string]bool) {
	t.Helper()
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
	return scrape.String(), registered
}

// docMetricNames extracts the metric names from the reference table under
// the runbook heading named section — table rows whose first cell is a
// backticked identifier and whose second is a metric type — mapped to
// their whole row.
func docMetricNames(t *testing.T, path, section string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	names := make(map[string]string)
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "#") {
			in = strings.TrimSpace(strings.TrimLeft(line, "#")) == section
			continue
		}
		if !in || !strings.HasPrefix(line, "| `") {
			continue
		}
		cell := strings.TrimPrefix(line, "| `")
		name, _, ok := strings.Cut(cell, "`")
		if !ok {
			t.Fatalf("unterminated backtick in table row %q", line)
		}
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
		t.Fatalf("no metric rows found under %q in %s — heading or table format changed?", section, path)
	}
	return names
}
