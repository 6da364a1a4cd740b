package stream

import (
	"bufio"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pathrank/internal/obsv"
	"pathrank/internal/partition"
	"pathrank/internal/pathrank"
	"pathrank/internal/router"
	"pathrank/internal/serve"
	"pathrank/internal/shardserve"
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

// TestOperationsDocCoversRoutes drives each process's handler through the
// endpoint table in docs/OPERATIONS.md § "Endpoints": the plain server, a
// shard worker (which also answers the plain server's rows), the router
// and the trainer. Every documented endpoint must answer, HEAD must work
// on its GET endpoints, another method must get 405 with the exact Allow
// value, and any path it does not document must get the 404, retired,
// unclean and escaped ones included.
func TestOperationsDocCoversRoutes(t *testing.T) {
	art, _ := testWorld(t)
	dir := t.TempDir()
	if _, err := partition.BuildBundle(art, dir, 2, nil); err != nil {
		t.Fatal(err)
	}
	newServer := func(a *pathrank.Artifact) *serve.Server {
		srv, err := serve.New(a, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		return srv
	}
	var workers []http.Handler
	var urls []string
	for i := range 2 {
		sart, err := pathrank.LoadArtifactFile(filepath.Join(dir, partition.ShardArtifactName(i)))
		if err != nil {
			t.Fatal(err)
		}
		ss, err := shardserve.New(newServer(sart))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, ss.Handler())
		ts := httptest.NewServer(workers[i])
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	sm, err := partition.LoadShardMapFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(sm, router.Config{Shards: urls})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(art, Config{})
	if err != nil {
		t.Fatal(err)
	}
	handlers := map[string]http.Handler{
		"pathrank-serve":         newServer(art).Handler(),
		"pathrank-serve -shard":  workers[0],
		"pathrank-serve -router": rt.Handler(),
		"pathrank-train":         svc.Handler(),
	}

	doc := docEndpoints(t, "../../docs/OPERATIONS.md")
	doc["pathrank-serve -shard"] = append(doc["pathrank-serve -shard"], doc["pathrank-serve"]...)
	if len(doc) != len(handlers) {
		t.Fatalf("docs/OPERATIONS.md § Endpoints documents processes %v; want one table per handler", slices.Collect(maps.Keys(doc)))
	}
	unknown := []string{"/", "/v2/rank/", "/v1/rank", "/metrics.json", "/shard/boundary", "/HEALTHZ",
		"//v2/rank", "/v2/./rank", "/v2/ran%6B", "/healthz/", "/healthz/.", "/heal%74hz"}
	for _, routes := range doc {
		for _, rt := range routes {
			unknown = append(unknown, rt.path)
		}
	}
	slices.Sort(unknown)
	unknown = slices.Compact(unknown)
	isTable404 := func(rec *httptest.ResponseRecorder) bool {
		return rec.Code == http.StatusNotFound && rec.Body.String() == "404 page not found\n"
	}
	call := func(h http.Handler, method, target string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader("")))
		return rec
	}
	for proc, h := range handlers {
		methods := map[string][]string{}
		for _, rt := range doc[proc] {
			methods[rt.path] = append(methods[rt.path], rt.method)
		}
		for p, ms := range methods {
			for _, m := range ms {
				if rec := call(h, m, p); rec.Code == http.StatusMethodNotAllowed || isTable404(rec) {
					t.Errorf("%s: %s %s is documented but got %d %q", proc, m, p, rec.Code, rec.Body)
				}
			}
			allow := slices.Clone(ms)
			if slices.Contains(ms, http.MethodGet) {
				if rec := call(h, http.MethodHead, p); rec.Code == http.StatusMethodNotAllowed || isTable404(rec) {
					t.Errorf("%s: HEAD %s got %d; a GET endpoint answers HEAD", proc, p, rec.Code)
				}
				allow = append(allow, http.MethodHead)
			}
			slices.Sort(allow)
			rec := call(h, http.MethodPut, p)
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != strings.Join(allow, ", ") {
				t.Errorf("%s: PUT %s got %d with Allow %q; want 405 with %q",
					proc, p, rec.Code, rec.Header().Get("Allow"), strings.Join(allow, ", "))
			}
		}
		for _, p := range unknown {
			if methods[p] != nil {
				continue
			}
			for _, m := range []string{http.MethodGet, http.MethodPost} {
				if rec := call(h, m, p); !isTable404(rec) {
					t.Errorf("%s: %s %s got %d %q; an undocumented path gets the 404", proc, m, p, rec.Code, rec.Body)
				}
			}
		}
	}
}

type docEndpoint struct{ method, path string }

// docEndpoints reads the endpoint table under the runbook heading
// "Endpoints": rows of a backticked process and a backticked "METHOD
// /path", grouped by process.
func docEndpoints(t *testing.T, path string) map[string][]docEndpoint {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]docEndpoint{}
	in := false
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") {
			in = strings.TrimSpace(strings.TrimLeft(line, "#")) == "Endpoints"
			continue
		}
		cols := strings.Split(line, "|")
		if !in || len(cols) < 4 || !strings.HasPrefix(line, "| `") {
			continue
		}
		proc := strings.Trim(strings.TrimSpace(cols[1]), "`")
		method, p, ok := strings.Cut(strings.Trim(strings.TrimSpace(cols[2]), "`"), " ")
		if !ok {
			t.Fatalf("endpoint cell of %q is not `METHOD /path`", line)
		}
		out[proc] = append(out[proc], docEndpoint{method, p})
	}
	if len(out) == 0 {
		t.Fatalf("no endpoint rows found under \"Endpoints\" in %s — heading or table format changed?", path)
	}
	return out
}
