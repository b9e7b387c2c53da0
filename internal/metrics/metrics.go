// Package metrics is a dependency-free instrumentation substrate for
// the whole stack: atomic counters, gauges and fixed-bucket histograms
// registered in a process-wide registry and exposed in the Prometheus
// text format (version 0.0.4). Every tier — JSON-RPC, chain, EVM,
// blockdb, docstore, web app — records into package-level instruments
// created at init, so a single scrape of /metrics answers "which tier
// is the bottleneck" without attaching a profiler.
//
// Instruments are safe for concurrent use and cost a few atomic
// operations per observation. SetEnabled(false) turns every observation
// into a single atomic load, which the obs-check overhead gate uses to
// prove the instrumented hot path stays within 5% of the bare one.
package metrics

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
	"time"
)

// enabled gates every observation. Default on.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns observation on or off process-wide. Registration and
// exposition are unaffected; disabled instruments simply stop moving.
func SetEnabled(on bool) { enabled.Store(on) }

// DefBuckets are the default latency buckets in seconds, spanning 50µs
// (an in-memory state read) to 10s (a pathological fsync stall).
var DefBuckets = []float64{
	0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 10,
}

// --- instruments -----------------------------------------------------------

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if !enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if !enabled.Load() {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if !enabled.Load() {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram. Buckets are upper bounds
// (Prometheus "le" semantics); an implicit +Inf bucket catches the rest.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits, updated by CAS
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if !enabled.Load() {
		return
	}
	// The first bound ≥ v, as sort.SearchFloat64s would find it (NaN
	// falls through to +Inf), by a scan: bounds are few, and the values
	// hot paths observe sit in the first buckets.
	i := 0
	for i < len(h.bounds) && !(h.bounds[i] >= v) {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if !enabled.Load() {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations, the sum of the bucket
// counts, so that Observe pays one atomic add for both.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed values
// as Prometheus's histogram_quantile does: by linear interpolation
// inside the bucket the rank falls in, from the bucket below's bound (0
// below the first). A rank in the +Inf bucket answers the highest
// bound. With no observations the answer is NaN.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 || len(h.bounds) == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var below uint64
	for i, c := range counts[:len(h.bounds)] {
		if c > 0 && float64(below+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			return lo + (h.bounds[i]-lo)*(rank-float64(below))/float64(c)
		}
		below += c
	}
	return h.bounds[len(h.bounds)-1]
}

// --- label vectors ---------------------------------------------------------

// labelKey joins label values into a map key; 0xff cannot appear in
// valid UTF-8 label values, so the join is unambiguous.
func labelKey(values []string) string { return strings.Join(values, "\xff") }

// CounterVec is a counter family partitioned by label values.
type CounterVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Counter
	order    []string // insertion-ordered keys for stable exposition
}

// With returns (creating if needed) the counter for the label values.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	c := v.children[key]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[key]; c == nil {
		c = &Counter{}
		v.children[key] = c
		v.order = append(v.order, key)
	}
	return c
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]*Gauge
	order    []string
}

// With returns (creating if needed) the gauge for the label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	g := v.children[key]
	v.mu.RUnlock()
	if g != nil {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g = v.children[key]; g == nil {
		g = &Gauge{}
		v.children[key] = g
		v.order = append(v.order, key)
	}
	return g
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct {
	labels   []string
	bounds   []float64
	mu       sync.RWMutex
	children map[string]*Histogram
	order    []string
}

// With returns (creating if needed) the histogram for the label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: want %d label values, got %d", len(v.labels), len(values)))
	}
	key := labelKey(values)
	v.mu.RLock()
	h := v.children[key]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[key]; h == nil {
		h = newHistogram(v.bounds)
		v.children[key] = h
		v.order = append(v.order, key)
	}
	return h
}

// --- registry --------------------------------------------------------------

// family is one named metric family in a registry.
type family struct {
	name, help, typ string
	write           func(w io.Writer)
	raw             func(w io.Writer) // collector family: writes everything itself
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format.
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	names map[string]bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

// Default is the process-wide registry every package-level instrument
// registers into.
var Default = NewRegistry()

func (r *Registry) register(f *family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f.name != "" && r.names[f.name] {
		panic("metrics: duplicate metric " + f.name)
	}
	if f.name != "" {
		r.names[f.name] = true
	}
	r.fams = append(r.fams, f)
}

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, typ: "counter", write: func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(float64(c.Value())))
	}})
	return c
}

// CounterVec registers and returns a new labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, children: map[string]*Counter{}}
	r.register(&family{name: name, help: help, typ: "counter", write: func(w io.Writer) {
		v.mu.RLock()
		defer v.mu.RUnlock()
		for _, key := range v.order {
			fmt.Fprintf(w, "%s{%s} %s\n", name, formatLabels(labels, strings.Split(key, "\xff")),
				formatFloat(float64(v.children[key].Value())))
		}
	}})
	return v
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, typ: "gauge", write: func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(float64(g.Value())))
	}})
	return g
}

// GaugeVec registers and returns a new labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	v := &GaugeVec{labels: labels, children: map[string]*Gauge{}}
	r.register(&family{name: name, help: help, typ: "gauge", write: func(w io.Writer) {
		v.mu.RLock()
		defer v.mu.RUnlock()
		for _, key := range v.order {
			fmt.Fprintf(w, "%s{%s} %s\n", name, formatLabels(labels, strings.Split(key, "\xff")),
				formatFloat(float64(v.children[key].Value())))
		}
	}})
	return v
}

// CounterFunc registers a counter computed at scrape time, for a count
// that other instruments already hold.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&family{name: name, help: help, typ: "counter", write: func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(float64(fn())))
	}})
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: "gauge", write: func(w io.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	}})
}

// Histogram registers and returns a new histogram with the given bucket
// upper bounds (nil = DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	h := newHistogram(bounds)
	r.register(&family{name: name, help: help, typ: "histogram", write: func(w io.Writer) {
		writeHistogram(w, name, "", h)
	}})
	return h
}

// HistogramVec registers and returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefBuckets
	}
	v := &HistogramVec{labels: labels, bounds: bounds, children: map[string]*Histogram{}}
	r.register(&family{name: name, help: help, typ: "histogram", write: func(w io.Writer) {
		v.mu.RLock()
		defer v.mu.RUnlock()
		for _, key := range v.order {
			writeHistogram(w, name, formatLabels(labels, strings.Split(key, "\xff")), v.children[key])
		}
	}})
	return v
}

// RegisterCollector adds a family that writes its own fully formed
// exposition lines (HELP/TYPE included) at scrape time — used by the
// Go-runtime collector, which gathers everything in one ReadMemStats.
func (r *Registry) RegisterCollector(fn func(w io.Writer)) {
	r.register(&family{raw: fn})
}

// FamilyInfo describes one registered metric family.
type FamilyInfo struct {
	Name string
	Type string
	Help string
}

// Families returns the registered families in registration order.
// Collector families (RegisterCollector) have no declared name — they
// write their own exposition lines at scrape time — and are skipped.
// This is the inventory `make metrics-doc` diffs against the README.
func (r *Registry) Families() []FamilyInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]FamilyInfo, 0, len(r.fams))
	for _, f := range r.fams {
		if f.name == "" {
			continue
		}
		out = append(out, FamilyInfo{Name: f.name, Type: f.typ, Help: f.help})
	}
	return out
}

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if f.raw != nil {
			f.raw(w)
			continue
		}
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		f.write(w)
	}
}

// Handler returns an http.Handler serving the registry in the
// Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }

// --- exposition helpers ----------------------------------------------------

func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	// Bucket counts are cumulative in the exposition format.
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, bucketPrefix(labels), formatFloat(ub), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketPrefix(labels), cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, formatFloat(h.Sum()))
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, h.Count())
	}
}

func bucketPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// formatLabels renders name="value" pairs with exposition-format
// escaping of the values.
func formatLabels(names, values []string) string {
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// EscapeLabel escapes a label value per the text exposition format:
// backslash, double-quote and newline must be escaped.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline).
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
