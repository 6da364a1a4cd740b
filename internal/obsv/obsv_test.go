package obsv

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// scrape renders the registry to a string.
func scrape(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// parseExposition is a minimal validity checker for the text format: every
// non-comment line must be `name{labels} value` or `name value`, HELP/TYPE
// must precede their family's samples, and TYPE must be a known kind. It
// returns the sample lines keyed by full series name (with labels).
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	for ln, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line in exposition", ln+1)
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			parts := strings.SplitN(rest, " ", 2)
			if len(parts) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", ln+1, line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown metric type %q", ln+1, parts[1])
			}
			typed[parts[0]] = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		}
		// Sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value on sample line %q", ln+1, line)
		}
		series, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(strings.TrimPrefix(valStr, "+"), 64)
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
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("line %d: sample %q has no preceding TYPE", ln+1, series)
			}
		}
		samples[series] = val
	}
	return samples
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("test_requests_total", "Requests served.", "endpoint")
	reqs.With("/healthz").Add(3)
	reqs.With("/v2/rank").Inc()
	r.GaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 42.5 })

	samples := parseExposition(t, scrape(t, r))
	if v := samples[`test_requests_total{endpoint="/healthz"}`]; v != 3 {
		t.Fatalf("counter /healthz = %v, want 3", v)
	}
	if v := samples[`test_requests_total{endpoint="/v2/rank"}`]; v != 1 {
		t.Fatalf("counter /v2/rank = %v, want 1", v)
	}
	if v := samples["test_uptime_seconds"]; v != 42.5 {
		t.Fatalf("gauge func = %v, want 42.5", v)
	}
}

func TestFamiliesRenderBeforeFirstChild(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_errors_total", "Errors.", "code")
	r.Histogram("test_latency_seconds", "Latency.", nil, "endpoint")
	out := scrape(t, r)
	for _, want := range []string{
		"# HELP test_errors_total Errors.",
		"# TYPE test_errors_total counter",
		"# TYPE test_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBucketsCumulativeAndMonotone(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_dur_seconds", "Durations.", []float64{0.01, 0.1, 1})
	obs := []float64{0.005, 0.05, 0.05, 0.5, 5}
	for _, x := range obs {
		h.With().Observe(x)
	}
	out := scrape(t, r)
	samples := parseExposition(t, out)

	bounds := []string{"0.01", "0.1", "1", "+Inf"}
	prev := -1.0
	for _, le := range bounds {
		key := fmt.Sprintf(`test_dur_seconds_bucket{le="%s"}`, le)
		v, ok := samples[key]
		if !ok {
			t.Fatalf("missing bucket %s in:\n%s", key, out)
		}
		if v < prev {
			t.Fatalf("bucket le=%s count %v < previous %v: buckets not cumulative", le, v, prev)
		}
		prev = v
	}
	if v := samples[`test_dur_seconds_bucket{le="+Inf"}`]; v != float64(len(obs)) {
		t.Fatalf("+Inf bucket = %v, want %d", v, len(obs))
	}
	if v := samples[`test_dur_seconds_bucket{le="0.1"}`]; v != 3 {
		t.Fatalf("le=0.1 bucket = %v, want 3", v)
	}
	if v := samples["test_dur_seconds_count"]; v != float64(len(obs)) {
		t.Fatalf("count = %v, want %d", v, len(obs))
	}
	var sum float64
	for _, x := range obs {
		sum += x
	}
	if v := samples["test_dur_seconds_sum"]; math.Abs(v-sum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", v, sum)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_weird_total", "Weird labels.", "path")
	c.With("a\"b\\c\nd").Inc()
	out := scrape(t, r)
	want := `test_weird_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(out, want) {
		t.Fatalf("escaped sample %q missing from:\n%s", want, out)
	}
	// The rendered line must contain no raw newline inside the label value.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "test_weird_total{") && !strings.HasSuffix(line, " 1") {
			t.Fatalf("label value leaked a raw newline: %q", line)
		}
	}
}

func TestHelpEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_help_total", "line one\nline two \\ backslash")
	out := scrape(t, r)
	if !strings.Contains(out, `# HELP test_help_total line one\nline two \\ backslash`) {
		t.Fatalf("help not escaped:\n%s", out)
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ok_total", "ok")
	for name, fn := range map[string]func(){
		"duplicate":    func() { r.Counter("test_ok_total", "dup") },
		"bad name":     func() { r.Counter("9bad", "bad") },
		"bad label":    func() { r.Counter("test_l_total", "bad", "9bad") },
		"bad buckets":  func() { r.Histogram("test_h_seconds", "bad", []float64{1, 1}) },
		"neg counter":  func() { r.Counter("test_neg_total", "neg").With().Add(-1) },
		"wrong labels": func() { r.Counter("test_w_total", "w", "a").With("x", "y").Inc() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_conc_total", "c", "w")
	h := r.Histogram("test_conc_seconds", "h", []float64{0.5})
	done := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 1000; j++ {
				c.With(strconv.Itoa(i)).Inc()
				h.With().Observe(float64(j%2) * 0.9)
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		_ = scrape(t, r) // scrapes race with writes
	}
	for i := 0; i < 4; i++ {
		<-done
	}
	samples := parseExposition(t, scrape(t, r))
	for i := 0; i < 4; i++ {
		if v := samples[fmt.Sprintf(`test_conc_total{w="%d"}`, i)]; v != 1000 {
			t.Fatalf("worker %d counter = %v, want 1000", i, v)
		}
	}
	if v := samples["test_conc_seconds_count"]; v != 4000 {
		t.Fatalf("histogram count = %v, want 4000", v)
	}
}
