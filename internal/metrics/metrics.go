// Package metrics is a dependency-free instrumentation layer with
// Prometheus text exposition: counters, gauges and histograms with label
// vectors, registered on a Registry and scraped through WritePrometheus (or
// the /metrics endpoint of Handler). The hot-path operations (Inc, Add,
// Observe, Set) are a mutex-guarded float update on an already-resolved
// child, so daemons pre-resolve children with With(...) where it matters.
//
// Exposition is deterministic: families in name order, children in
// label-value order, histogram buckets cumulative and ascending — so tests
// can assert on exact scrape output and diffing two scrapes is meaningful.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind is the exposition type of a metric family.
type Kind int

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// DefBuckets is the default histogram bucketing (seconds), spanning the
// microsecond solves of tests through multi-hour RAMSES runs.
var DefBuckets = []float64{.0001, .001, .01, .1, .5, 1, 5, 30, 60, 300, 1800, 3600, 7200, 14400}

// ExpBuckets returns n buckets starting at start, each factor times the
// previous — the geometric ladders queue waits and durations want.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Registry holds metric families. The zero value is not usable; construct
// with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one named metric with its children (one per label-value tuple).
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]*child
}

// child is one (metric, label values) series.
type child struct {
	mu     sync.Mutex
	values []string
	val    float64   // counter/gauge value; histogram sum
	count  uint64    // histogram observation count
	counts []uint64  // per-bucket (non-cumulative) observation counts
	upper  []float64 // bucket upper bounds (shared with family)
}

// Counter is a monotonically increasing series.
type Counter struct{ c *child }

// Inc adds 1.
func (c Counter) Inc() { c.Add(1) }

// Add increases the counter; negative or non-finite deltas are ignored
// (counters are monotone by contract).
func (c Counter) Add(delta float64) {
	if delta < 0 || math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	c.c.mu.Lock()
	c.c.val += delta
	c.c.mu.Unlock()
}

// Value returns the current count.
func (c Counter) Value() float64 {
	c.c.mu.Lock()
	defer c.c.mu.Unlock()
	return c.c.val
}

// Gauge is a series that can go up and down.
type Gauge struct{ c *child }

// Set replaces the gauge value.
func (g Gauge) Set(v float64) {
	g.c.mu.Lock()
	g.c.val = v
	g.c.mu.Unlock()
}

// Value returns the current gauge value.
func (g Gauge) Value() float64 {
	g.c.mu.Lock()
	defer g.c.mu.Unlock()
	return g.c.val
}

// Histogram accumulates observations into fixed buckets.
type Histogram struct{ c *child }

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.c.mu.Lock()
	h.c.val += v
	h.c.count++
	// Buckets are few (≤ ~20); linear scan beats binary search at this size.
	for i, ub := range h.c.upper {
		if v <= ub {
			h.c.counts[i]++
			break
		}
	}
	h.c.mu.Unlock()
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With resolves the child for the given label values (created on first use).
func (v CounterVec) With(labelValues ...string) Counter {
	return Counter{v.f.child(labelValues)}
}

// GaugeVec is a gauge family keyed by label values.
type GaugeVec struct{ f *family }

// With resolves the child for the given label values (created on first use).
func (v GaugeVec) With(labelValues ...string) Gauge {
	return Gauge{v.f.child(labelValues)}
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With resolves the child for the given label values (created on first use).
func (v HistogramVec) With(labelValues ...string) Histogram {
	return Histogram{v.f.child(labelValues)}
}

// NewCounter registers a counter family. Registering the same name twice
// returns the existing family (daemons and tests may share wiring paths);
// re-registering with a different kind panics — that is a programming error.
func (r *Registry) NewCounter(name, help string, labels ...string) CounterVec {
	return CounterVec{r.family(name, help, KindCounter, nil, labels)}
}

// NewGauge registers a gauge family.
func (r *Registry) NewGauge(name, help string, labels ...string) GaugeVec {
	return GaugeVec{r.family(name, help, KindGauge, nil, labels)}
}

// NewHistogram registers a histogram family with the given bucket upper
// bounds (nil = DefBuckets). Bounds are sorted and deduplicated; the +Inf
// bucket is implicit.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...string) HistogramVec {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	uniq := bs[:0]
	for i, b := range bs {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			continue
		}
		if i > 0 && len(uniq) > 0 && b == uniq[len(uniq)-1] {
			continue
		}
		uniq = append(uniq, b)
	}
	return HistogramVec{r.family(name, help, KindHistogram, uniq, labels)}
}

func (r *Registry) family(name, help string, kind Kind, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %s, was %s", name, kind, f.kind))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels: append([]string(nil), labels...), buckets: buckets,
		children: make(map[string]*child),
	}
	r.families[name] = f
	return f
}

// childKey joins label values unambiguously (values may contain commas).
func childKey(values []string) string {
	var sb strings.Builder
	for _, v := range values {
		fmt.Fprintf(&sb, "%d:%s|", len(v), v)
	}
	return sb.String()
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := &child{values: append([]string(nil), values...), upper: f.buckets}
	if f.kind == KindHistogram {
		c.counts = make([]uint64, len(f.buckets))
	}
	f.children[key] = c
	return c
}

// escapeLabel escapes a label value per the Prometheus text format:
// backslash, double quote and newline.
func escapeLabel(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are legal).
func escapeHelp(v string) string {
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// labelString renders {k="v",...} for the given names and values, with an
// optional extra pair appended (histogram le); empty when there are none.
func labelString(names, values []string, extraK, extraV string) string {
	if len(names) == 0 && extraK == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, n, escapeLabel(values[i]))
	}
	if extraK != "" {
		if len(names) > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `%s="%s"`, extraK, escapeLabel(extraV))
	}
	sb.WriteByte('}')
	return sb.String()
}

// formatFloat renders a sample value the Prometheus way.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	r.mu.Unlock()

	var sb strings.Builder
	for _, f := range fams {
		f.render(&sb)
	}
	_, err := w.Write([]byte(sb.String()))
	return err
}

// String renders the registry as the exposition text (tests and /statusz).
func (r *Registry) String() string {
	var sb strings.Builder
	_ = r.WritePrometheus(&sb)
	return sb.String()
}

func (f *family) render(sb *strings.Builder) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	children := make([]*child, 0, len(keys))
	for _, k := range keys {
		children = append(children, f.children[k])
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return
	}
	fmt.Fprintf(sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range children {
		c.mu.Lock()
		switch f.kind {
		case KindHistogram:
			// Buckets are exposed cumulatively, ascending, +Inf last.
			var cum uint64
			for i, ub := range c.upper {
				cum += c.counts[i]
				fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
					labelString(f.labels, c.values, "le", formatFloat(ub)), cum)
			}
			fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name,
				labelString(f.labels, c.values, "le", "+Inf"), c.count)
			fmt.Fprintf(sb, "%s_sum%s %s\n", f.name,
				labelString(f.labels, c.values, "", ""), formatFloat(c.val))
			fmt.Fprintf(sb, "%s_count%s %d\n", f.name,
				labelString(f.labels, c.values, "", ""), c.count)
		default:
			fmt.Fprintf(sb, "%s%s %s\n", f.name,
				labelString(f.labels, c.values, "", ""), formatFloat(c.val))
		}
		c.mu.Unlock()
	}
}
