package serve

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// scrapeProm fetches GET /metrics and parses the exposition into samples
// keyed by full series (name plus label set), failing the test on any
// text-format violation: a sample without a preceding TYPE, an unknown
// type, a malformed line, or a raw newline leaking out of a label value.
func scrapeProm(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type = %q, want the Prometheus text format", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for ln, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: empty line in exposition", ln+1)
		case strings.HasPrefix(line, "# HELP "):
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 || (parts[1] != "counter" && parts[1] != "gauge" && parts[1] != "histogram") {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			typed[parts[0]] = true
			continue
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value on sample line %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil && valStr != "+Inf" {
			t.Fatalf("line %d: bad sample value %q: %v", ln+1, valStr, err)
		}
		name := series
		if i := strings.IndexByte(series, '{'); i >= 0 {
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("line %d: unterminated label set %q", ln+1, series)
			}
			name = series[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, series)
		}
		samples[series] = val
	}
	return samples
}

// TestMetricsEndpoint drives cached, uncached, shed, and invalid
// requests through the server and checks that GET /metrics is valid
// Prometheus text format whose counters moved accordingly.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 8})

	// Every registered family renders HELP/TYPE before any traffic, so a
	// scraper (and the docs test) sees the full metric surface up front.
	initial := scrapeProm(t, ts.URL)
	if initial["pathrank_load_shed_total"] != 0 {
		t.Fatalf("fresh server reports %v shed requests", initial["pathrank_load_shed_total"])
	}

	// One uncached query, then the identical query again (cache hit).
	body := `{"src":0,"dst":8,"k":3}`
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rank %d: HTTP %d", i, resp.StatusCode)
		}
	}
	// A batch of three distinct queries.
	batch := `{"queries":[{"src":0,"dst":9},{"src":1,"dst":10},{"src":2,"dst":11}]}`
	resp, err := http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// A shed request: the in-flight gauge is pushed over MaxInFlight, so
	// the next arrival is rejected deterministically.
	s.inFlight.Add(100)
	resp, err = http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s.inFlight.Add(-100)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overloaded rank: HTTP %d, want 503", resp.StatusCode)
	}
	// An undecodable body.
	resp, err = http.Post(ts.URL+"/v2/rank", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	m := scrapeProm(t, ts.URL)
	reqs := m[`pathrank_http_requests_total{endpoint="/v2/rank"}`]
	if reqs != 5 {
		t.Fatalf("/v2/rank requests_total = %v, want 5", reqs)
	}
	if hits := m[`pathrank_cache_events_total{event="hit"}`]; hits < 1 {
		t.Fatalf("cache hits = %v, want >= 1", hits)
	}
	if misses := m[`pathrank_cache_events_total{event="miss"}`]; misses < 4 {
		t.Fatalf("cache misses = %v, want >= 4 (uncached single + 3 batch items)", misses)
	}
	if shed := m["pathrank_load_shed_total"]; shed != 1 {
		t.Fatalf("load_shed_total = %v, want 1", shed)
	}
	if v := m[`pathrank_rank_errors_total{code="backlog"}`]; v != 1 {
		t.Fatalf("backlog errors = %v, want 1", v)
	}
	if v := m[`pathrank_rank_errors_total{code="invalid_request"}`]; v != 1 {
		t.Fatalf("invalid_request errors = %v, want 1", v)
	}
	if v := m["pathrank_batch_queries_sum"]; v != 3 {
		t.Fatalf("batch_queries_sum = %v, want 3 (one 3-query batch)", v)
	}
	if v := m["pathrank_in_flight_requests"]; v != 0 {
		t.Fatalf("in_flight gauge = %v at rest", v)
	}
	if v := m["go_goroutines"]; v < 1 {
		t.Fatalf("go_goroutines = %v", v)
	}

	// The latency histogram observed the three completed rank exchanges
	// (shed and undecodable requests never pin a snapshot) with cumulative
	// monotone buckets.
	prefix := `pathrank_request_duration_seconds_bucket{endpoint="/v2/rank",le=`
	type bkt struct {
		le    float64
		count float64
	}
	var buckets []bkt
	for series, v := range m {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		leStr := strings.TrimSuffix(strings.Trim(strings.TrimPrefix(series, prefix), `"`), `"}`)
		le := math.Inf(1)
		if leStr != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leStr, 64); err != nil {
				t.Fatalf("unparseable le bound in %s: %v", series, err)
			}
		}
		buckets = append(buckets, bkt{le, v})
	}
	if len(buckets) < 2 {
		t.Fatal("no latency buckets for endpoint /v2/rank")
	}
	sort.Slice(buckets, func(a, b int) bool { return buckets[a].le < buckets[b].le })
	for i := 1; i < len(buckets); i++ {
		if buckets[i].count < buckets[i-1].count {
			t.Fatalf("buckets not cumulative: le=%g count %v < le=%g count %v",
				buckets[i].le, buckets[i].count, buckets[i-1].le, buckets[i-1].count)
		}
	}
	count := m[`pathrank_request_duration_seconds_count{endpoint="/v2/rank"}`]
	if inf := buckets[len(buckets)-1].count; inf != count || count != 3 {
		t.Fatalf("+Inf bucket = %v, count = %v, want both 3", inf, count)
	}
}

// TestMetricsLabelEscapingOverHTTP registers a family with hostile label
// values on the server's own registry and checks the scrape stays one
// line per sample, correctly escaped.
func TestMetricsLabelEscapingOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := s.Metrics().Counter("test_hostile_total", "Hostile labels.", "path")
	c.With("a\"b\\c\nd").Inc()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	want := `test_hostile_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(string(raw), want) {
		t.Fatalf("escaped sample %q missing from scrape", want)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "test_hostile_total{") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("label value leaked a raw newline: %q", line)
		}
	}
}

// TestMetricsSingleflightShared: concurrent identical uncached queries
// must surface as singleflight_shared cache events. Every single-query
// lookup is a hit or a miss; a shared answer is a miss that waited on
// another request's computation, so here singleflight_shared counts a
// subset of miss. (A duplicate inside one batch counts as
// singleflight_shared only, neither hit nor miss.)
func TestMetricsSingleflightShared(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 8
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v2/rank", "application/json",
				strings.NewReader(`{"src":3,"dst":12,"k":4}`))
			if err == nil {
				resp.Body.Close()
			}
			done <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	m := scrapeProm(t, ts.URL)
	hit := m[`pathrank_cache_events_total{event="hit"}`]
	shared := m[`pathrank_cache_events_total{event="singleflight_shared"}`]
	miss := m[`pathrank_cache_events_total{event="miss"}`]
	if miss < 1 || hit+miss != n || shared > miss-1 {
		t.Fatalf("cache events hit=%v shared=%v miss=%v, want hit+miss=%d and at most miss-1 shared", hit, shared, miss, n)
	}
}
