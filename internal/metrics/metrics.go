// Package metrics is the simulator's live telemetry layer: a small
// registry of atomic counters and gauges that the simulation loop
// updates on a coarse cadence and an HTTP scraper reads concurrently,
// exposed in Prometheus text format and through expvar. A multi-hour
// sweep is otherwise a black box until its CSVs land; with a registry
// wired in, `curl localhost:PORT/metrics` answers "is it alive, how
// far along, how fast" without perturbing the run — publication is
// one-way (the sim goroutine stores, scrapers load) and touches no
// engine state or RNG.
//
// Metric naming follows the Prometheus conventions: a `wormmesh_`
// namespace, an `_engine_`/`_sweep_` subsystem, `_total` suffixes on
// counters, base units (cycles, seconds, messages) on gauges. See
// DESIGN.md §4.4.
package metrics

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Metric is one named value in a Registry. Writers mutate the concrete
// types (Counter, Gauge, FloatGauge, Histogram) through atomic stores;
// readers — the Prometheus handler, expvar — only ever call Value.
type Metric interface {
	Name() string
	Help() string
	// Kind is the Prometheus type: "counter", "gauge" or "histogram".
	Kind() string
	// Value returns the current value as a float64 (atomically). For
	// histograms this is the observation count.
	Value() float64
}

// labeledMetric is the optional interface a metric implements to carry
// a constant Prometheus label body (e.g. `route="run"`). Labels make
// one NAME hold several SERIES — the RED layer's per-route counters —
// while registration, sorting and expvar keys stay unique per series.
type labeledMetric interface {
	labelBody() string
}

// seriesKey is the registry's uniqueness key: the metric name alone, or
// name{labels} for labeled series.
func seriesKey(m Metric) string {
	if lm, ok := m.(labeledMetric); ok && lm.labelBody() != "" {
		return m.Name() + "{" + lm.labelBody() + "}"
	}
	return m.Name()
}

// Counter is a monotonically non-decreasing cumulative count.
type Counter struct {
	name, help, labels string
	v                  atomic.Int64
}

// Add increments the counter by d (d must be >= 0).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Get returns the current count.
func (c *Counter) Get() int64 { return c.v.Load() }

// Name implements Metric.
func (c *Counter) Name() string { return c.name }

// Help implements Metric.
func (c *Counter) Help() string { return c.help }

// Kind implements Metric.
func (c *Counter) Kind() string { return "counter" }

// Value implements Metric.
func (c *Counter) Value() float64 { return float64(c.v.Load()) }

// labelBody implements labeledMetric.
func (c *Counter) labelBody() string { return c.labels }

// Gauge is an instantaneous integer value.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Get returns the current value.
func (g *Gauge) Get() int64 { return g.v.Load() }

// Name implements Metric.
func (g *Gauge) Name() string { return g.name }

// Help implements Metric.
func (g *Gauge) Help() string { return g.help }

// Kind implements Metric.
func (g *Gauge) Kind() string { return "gauge" }

// Value implements Metric.
func (g *Gauge) Value() float64 { return float64(g.v.Load()) }

// FloatGauge is an instantaneous float64 value (stored as IEEE-754
// bits in a uint64, so loads and stores stay atomic and lock-free).
type FloatGauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores the gauge value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Get returns the current value.
func (g *FloatGauge) Get() float64 { return math.Float64frombits(g.bits.Load()) }

// Name implements Metric.
func (g *FloatGauge) Name() string { return g.name }

// Help implements Metric.
func (g *FloatGauge) Help() string { return g.help }

// Kind implements Metric.
func (g *FloatGauge) Kind() string { return "gauge" }

// Value implements Metric.
func (g *FloatGauge) Value() float64 { return g.Get() }

// histBuckets is the fixed log₂ bucket count of a Histogram. Bucket i
// counts observations v ≤ 2^(i+histMinExp) seconds; with histMinExp
// −20 the boundaries run from ~1µs to ~2048s — the full useful span of
// an HTTP request, a queue wait or a simulation — and the final bucket
// doubles as the +Inf overflow.
const (
	histBuckets = 32
	histMinExp  = -20
)

// Histogram is a log₂-bucketed distribution of non-negative float64
// observations (seconds, by convention). Observe is lock-free — one
// atomic add on the bucket, one on the count, one CAS loop on the sum —
// so scheduler workers and HTTP handlers can observe concurrently
// without contending on a mutex. Rendering follows the Prometheus
// histogram exposition: cumulative `_bucket{le=...}` series plus
// `_sum` and `_count`.
type Histogram struct {
	name, help, labels string
	count              atomic.Int64
	sumBits            atomic.Uint64
	buckets            [histBuckets]atomic.Int64
}

// Observe records one observation (negative and NaN values clamp to
// the lowest bucket: they are measurement noise, not data).
func (h *Histogram) Observe(v float64) {
	idx := 0
	if v > 0 && !math.IsNaN(v) {
		frac, exp := math.Frexp(v)
		if frac == 0.5 {
			exp-- // exact powers of two belong to their own le boundary
		}
		idx = exp - histMinExp
		if idx < 0 {
			idx = 0
		}
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	if v > 0 && !math.IsNaN(v) {
		for {
			old := h.sumBits.Load()
			next := math.Float64bits(math.Float64frombits(old) + v)
			if h.sumBits.CompareAndSwap(old, next) {
				break
			}
		}
	}
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket returns the non-cumulative count of bucket i (tests).
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// BucketUpperBound returns bucket i's `le` boundary in seconds
// (+Inf for the last bucket).
func BucketUpperBound(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i+histMinExp)
}

// Name implements Metric.
func (h *Histogram) Name() string { return h.name }

// Help implements Metric.
func (h *Histogram) Help() string { return h.help }

// Kind implements Metric.
func (h *Histogram) Kind() string { return "histogram" }

// Value implements Metric: the observation count (what expvar shows).
func (h *Histogram) Value() float64 { return float64(h.count.Load()) }

// labelBody implements labeledMetric.
func (h *Histogram) labelBody() string { return h.labels }

// writeProm renders the histogram's series. Empty buckets are elided
// (32 log₂ buckets would otherwise bloat every scrape); cumulative
// counts stay correct because `le` is cumulative by definition and the
// +Inf bucket always appears.
func (h *Histogram) writeProm(w io.Writer) error {
	sep := ""
	if h.labels != "" {
		sep = ","
	}
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		cum += n
		if n == 0 && i < histBuckets-1 {
			continue
		}
		le := "+Inf"
		if i < histBuckets-1 {
			le = formatValue(BucketUpperBound(i))
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", h.name, h.labels, sep, le, cum); err != nil {
			return err
		}
	}
	series := ""
	if h.labels != "" {
		series = "{" + h.labels + "}"
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, series, formatValue(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, series, h.count.Load())
	return err
}

// Registry owns a set of metrics. Registration happens once at setup
// time (and panics on duplicate names, a programming error); reads and
// writes after that are lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics []Metric
	byName  map[string]Metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Metric{}}
}

func (r *Registry) register(m Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := seriesKey(m)
	if _, dup := r.byName[key]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", key))
	}
	r.byName[key] = m
	r.metrics = append(r.metrics, m)
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.register(c)
	return c
}

// NewLabeledCounter registers a counter series under name with a
// constant label body (e.g. `route="run"`). Several series may share a
// name as long as their label bodies differ; HELP/TYPE are emitted once
// per name.
func (r *Registry) NewLabeledCounter(name, labels, help string) *Counter {
	c := &Counter{name: name, help: help, labels: labels}
	r.register(c)
	return c
}

// NewHistogram registers and returns a log₂ histogram (pass labels ""
// for an unlabeled series).
func (r *Registry) NewHistogram(name, labels, help string) *Histogram {
	h := &Histogram{name: name, help: help, labels: labels}
	r.register(h)
	return h
}

// NewGauge registers and returns an integer gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.register(g)
	return g
}

// NewFloatGauge registers and returns a float gauge.
func (r *Registry) NewFloatGauge(name, help string) *FloatGauge {
	g := &FloatGauge{name: name, help: help}
	r.register(g)
	return g
}

// Get returns the metric registered under name (for labeled series,
// `name{labels}`), or nil.
func (r *Registry) Get(name string) Metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byName[name]
}

// snapshot returns the metric list sorted by series key — stable scrape
// output regardless of registration order, with a name's labeled series
// adjacent so HELP/TYPE group naturally.
func (r *Registry) snapshot() []Metric {
	r.mu.Lock()
	out := append([]Metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name() != out[j].Name() {
			return out[i].Name() < out[j].Name()
		}
		return seriesKey(out[i]) < seriesKey(out[j])
	})
	return out
}

// WritePrometheus renders every metric in the Prometheus text
// exposition format (version 0.0.4): HELP and TYPE once per metric
// name, then every series of that name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	prev := ""
	for _, m := range r.snapshot() {
		if m.Name() != prev {
			prev = m.Name()
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
				m.Name(), m.Help(), m.Name(), m.Kind()); err != nil {
				return err
			}
		}
		if h, ok := m.(*Histogram); ok {
			if err := h.writeProm(w); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", seriesKey(m), formatValue(m.Value())); err != nil {
			return err
		}
	}
	return nil
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format (for mounting at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// PublishExpvar additionally exposes every currently registered metric
// through the process-global expvar namespace (visible at /debug/vars).
// Re-publishing an existing name is a no-op, so the call is idempotent
// and safe across multiple registries in tests.
func (r *Registry) PublishExpvar() {
	for _, m := range r.snapshot() {
		key := seriesKey(m)
		if expvar.Get(key) != nil {
			continue
		}
		m := m // capture
		expvar.Publish(key, expvar.Func(func() any { return m.Value() }))
	}
}

// Serve starts an HTTP listener on addr exposing the registry at
// /metrics and the expvar namespace at /debug/vars, serving in a
// background goroutine. It returns the server (Close it to stop) and
// the bound address — pass ":0" to let the kernel pick a free port.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("metrics: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip representation, integers without an exponent.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
