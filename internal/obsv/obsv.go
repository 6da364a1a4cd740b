// Package obsv is a dependency-free metrics registry that exposes
// counters, gauges, and histograms in the Prometheus text exposition
// format (version 0.0.4).
//
// The package exists so the serving stack can be scraped by any
// Prometheus-compatible collector without importing client libraries: a
// Registry holds metric families, each family carries a fixed label
// schema, and WritePrometheus renders the whole registry as valid
// exposition text. A Registry is also an http.Handler, so mounting it at
// GET /metrics is one line.
//
// Metric types follow Prometheus semantics exactly:
//
//   - Counter: a monotonically non-decreasing float. Use for totals
//     (requests served, cache hits, errors by code).
//   - Gauge: a float that can go up and down, sampled from a function at
//     scrape time (GaugeFunc), so it always reports live state (queue
//     depths, snapshot age) without a background updater.
//   - Histogram: observations bucketed by configurable upper bounds, with
//     _sum and _count series. Buckets are cumulative in the exposition
//     (each le bucket counts every observation at or below its bound), so
//     quantiles can be estimated server-side with histogram_quantile.
//
// Families are registered once, at construction, with a fixed name, help
// string, and label-name schema; children (one per distinct label-value
// tuple) materialize on first use via With. Registration panics on an
// invalid or duplicate name — like expvar.Publish, a bad registration is a
// programming error, not a runtime condition. All metric operations and
// scrapes are safe for concurrent use, and the hot-path operations
// (Counter.Add, Histogram.Observe) are lock-free.
//
// Every family is rendered on every scrape, HELP and TYPE lines included,
// even before its first child exists — a scraper (or a documentation test)
// therefore sees the complete metric surface of a freshly started process.
package obsv

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets spans request latencies from 50µs to 10s, matched to
// this service's range: a cached rank answer costs tens of microseconds,
// an uncached D-TkDI enumeration hundreds of microseconds to milliseconds,
// and a saturated or shedding server seconds.
var DefLatencyBuckets = []float64{
	5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
	2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefSizeBuckets is a powers-of-two scale for count-valued distributions
// (batch sizes, paths per scoring sweep).
var DefSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Registry is a collection of metric families sharing one exposition
// endpoint. The zero value is not usable; create one with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family
	names    map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// metricKind is the TYPE line vocabulary.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// family is one named metric with a fixed label schema and a child per
// label-value tuple.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // joined label values -> *value | *histogram
	fn       func() float64 // GaugeFunc families sample this at scrape time
}

// register validates and installs a family, panicking on misuse (invalid
// or duplicate name, invalid label, unsorted buckets).
func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("obsv: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !validName(l) || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obsv: invalid label name %q on %q", l, f.name))
		}
	}
	for i := 1; i < len(f.buckets); i++ {
		if !(f.buckets[i] > f.buckets[i-1]) {
			panic(fmt.Sprintf("obsv: histogram %q buckets must be strictly increasing", f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[f.name] {
		panic(fmt.Sprintf("obsv: duplicate metric name %q", f.name))
	}
	r.names[f.name] = true
	f.children = make(map[string]any)
	r.families = append(r.families, f)
}

// validName reports whether s is a legal Prometheus metric or label name:
// [a-zA-Z_:][a-zA-Z0-9_:]* (colons are reserved for recording rules but
// legal in the grammar; labels additionally exclude them via validName's
// callers not using them).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// CounterVec is a counter family; obtain children with With.
type CounterVec struct{ f *family }

// HistogramVec is a histogram family; obtain children with With.
type HistogramVec struct{ f *family }

// Counter registers a counter family with the given label schema. With no
// labels the returned vec has exactly one child, With().
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	f := &family{name: name, help: help, kind: kindCounter, labels: labels}
	r.register(f)
	return &CounterVec{f}
}

// GaugeFunc registers an unlabeled gauge whose value is sampled by calling
// fn at scrape time. fn must be safe for concurrent use and must not call
// back into the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := &family{name: name, help: help, kind: kindGauge, fn: fn}
	r.register(f)
}

// Histogram registers a histogram family. buckets are the upper bounds of
// the observation buckets, strictly increasing; the +Inf bucket is
// implicit. nil buckets use DefLatencyBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	f := &family{name: name, help: help, kind: kindHistogram, labels: labels,
		buckets: append([]float64(nil), buckets...)}
	r.register(f)
	return &HistogramVec{f}
}

// childKey joins label values with a separator no valid UTF-8 label value
// contains as a lone byte.
func childKey(values []string) string {
	return strings.Join(values, "\xff")
}

// child returns (creating if needed) the child for a label-value tuple.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obsv: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	return c
}

// value is a lock-free float64 cell: a counter, or a histogram's sum.
type value struct{ bits atomic.Uint64 }

func (v *value) add(delta float64) {
	for {
		old := v.bits.Load()
		if v.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

func (v *value) get() float64 { return math.Float64frombits(v.bits.Load()) }

// Counter is one child of a counter family.
type Counter struct{ v *value }

// With returns the counter for the given label values (in the schema's
// registration order), creating it on first use.
func (c *CounterVec) With(values ...string) Counter {
	return Counter{c.f.child(values, func() any { return new(value) }).(*value)}
}

// Inc adds 1.
func (c Counter) Inc() { c.v.add(1) }

// Add adds delta, which must be non-negative (counters are monotone).
func (c Counter) Add(delta float64) {
	if delta < 0 {
		panic("obsv: counter decrease")
	}
	c.v.add(delta)
}

// Value returns the current count (used by tests and compat bridges).
func (c Counter) Value() float64 { return c.v.get() }

// histogram is one child of a histogram family: per-bucket observation
// counts (non-cumulative internally; rendered cumulative), plus sum and
// count.
type histogram struct {
	buckets []float64
	counts  []atomic.Uint64 // len(buckets)+1; last is the +Inf bucket
	count   atomic.Uint64
	sum     value
}

// Histogram is a handle on one child of a histogram family.
type Histogram struct{ h *histogram }

// With returns the histogram for the given label values.
func (h *HistogramVec) With(values ...string) Histogram {
	return Histogram{h.f.child(values, func() any {
		return &histogram{buckets: h.f.buckets, counts: make([]atomic.Uint64, len(h.f.buckets)+1)}
	}).(*histogram)}
}

// Observe records one observation.
func (h Histogram) Observe(x float64) {
	// Latency distributions are heavily skewed toward the low buckets, so a
	// linear scan from the bottom beats binary search on the hot path.
	i := 0
	for i < len(h.h.buckets) && x > h.h.buckets[i] {
		i++
	}
	h.h.counts[i].Add(1)
	h.h.count.Add(1)
	h.h.sum.add(x)
}

// WritePrometheus renders every family in registration order as Prometheus
// text exposition format v0.0.4.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// ServeHTTP implements the scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WritePrometheus(w)
}

// write renders one family: HELP, TYPE, then children sorted by label
// values so consecutive scrapes are byte-stable.
func (f *family) write(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)

	if f.fn != nil {
		fmt.Fprintf(&b, "%s %s\n", f.name, formatFloat(f.fn()))
		_, err := io.WriteString(w, b.String())
		return err
	}

	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()

	for i, k := range keys {
		var values []string
		if k != "" || len(f.labels) > 0 {
			values = strings.Split(k, "\xff")
		}
		switch c := children[i].(type) {
		case *value:
			fmt.Fprintf(&b, "%s%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.get()))
		case *histogram:
			cum := uint64(0)
			for j, ub := range c.buckets {
				cum += c.counts[j].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, values, "le", formatFloat(ub)), cum)
			}
			cum += c.counts[len(c.buckets)].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, values, "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, labelString(f.labels, values, "", ""), formatFloat(c.sum.get()))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, labelString(f.labels, values, "", ""), c.count.Load())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// labelString renders a {k="v",...} label set, appending the extra pair
// (the le bucket bound) when extraKey is non-empty. Returns "" for an
// empty set.
func labelString(names, values []string, extraKey, extraVal string) string {
	if len(names) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and newline.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a sample value the way Prometheus expects: shortest
// round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
