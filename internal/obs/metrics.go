// Package obs is the observability layer of the reproduction: a metrics
// registry (counters, gauges, histograms with a Prometheus text endpoint),
// the flight recorder, which files one record per demand completion with
// every crossing of its path (core -> L2 -> CHA -> IMC or M2PCIe / CXL
// link / device queue / media) and feeds tail capture, stage residency
// and the sampled Perfetto waterfall, and a live introspection HTTP server
// (/metrics, /status, /trace, /flight, /debug/pprof).
//
// Design contract: everything on a simulator or profiler hot path is
// allocation-free and guarded by one atomic flag, so attached-but-disabled
// instrumentation costs a nil-check plus an atomic load (bounded at 2% by
// the paired FlightOff benchmarks in `make bench-regress`).  Simulator
// state that is not atomically updatable (engine depth, PMU counters) is
// *pushed* into the registry at epoch-sync boundaries by the single-owner
// profiler loop — readers (the HTTP server) only ever see atomic values, so
// a metrics scrape is race-free and snapshot-consistent by construction.
//
// Metric naming follows pf_<subsystem>_<name>_<unit>; an optional
// {label="value"} suffix distinguishes instances (e.g. per-worker runner
// counters).  See DESIGN.md §9.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.  All methods are safe for
// concurrent use and allocation-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.  Values are float64 so rates
// and ratios (pool hit rate, utilization) publish directly.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket cumulative histogram.  Observe is
// allocation-free and safe for concurrent use.
type Histogram struct {
	bounds []float64       // upper bounds, ascending; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the overflow (+Inf) bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// metric is one registered series with its rendering behavior.
type metric struct {
	name string // full series name, may carry a {label="v"} suffix
	base string // name with any label suffix stripped
	help string
	typ  string // counter | gauge | histogram

	counter *Counter
	gauge   *Gauge
	gfunc   func() float64
	hist    *Histogram
}

// Registry holds named metrics and renders them in Prometheus text format.
// Get-or-create accessors take a lock; the returned handles are lock-free.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// Default is the process-wide registry that subsystems without an explicit
// registry (the experiment runner pool, cmd binaries) publish into.
var Default = NewRegistry()

// baseOf strips a {label="v"} suffix from a series name.
func baseOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// register installs m under its name, panicking on a same-name metric of a
// different kind (a naming bug, not a runtime condition).
func (r *Registry) register(name, help, typ string) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, m.typ))
		}
		return m
	}
	m := &metric{name: name, base: baseOf(name), help: help, typ: typ}
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, "counter")
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.counter == nil {
		m.counter = &Counter{}
	}
	return m.counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, "gauge")
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.gauge == nil && m.gfunc == nil {
		m.gauge = &Gauge{}
	}
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed at scrape time.  The
// function must be safe to call from the HTTP serving goroutine.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, "gauge")
	r.mu.Lock()
	defer r.mu.Unlock()
	m.gfunc = fn
	m.gauge = nil
}

// Histogram returns the named histogram, creating it with the given upper
// bucket bounds (ascending) on first use.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.register(name, help, "histogram")
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.hist == nil {
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		m.hist = &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	}
	return m.hist
}

// Len reports the number of registered series.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.metrics)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4), grouped by base name with one HELP/TYPE header
// per group, series sorted by name for deterministic scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, name := range r.order {
		ms = append(ms, r.metrics[name])
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].base != ms[j].base {
			return ms[i].base < ms[j].base
		}
		return ms[i].name < ms[j].name
	})

	var b strings.Builder
	lastBase := ""
	for _, m := range ms {
		if m.base != lastBase {
			lastBase = m.base
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.base, m.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.base, m.typ)
		}
		switch {
		case m.counter != nil:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.counter.Value())
		case m.gfunc != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gfunc()))
		case m.gauge != nil:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.gauge.Value()))
		case m.hist != nil:
			h := m.hist
			var cum uint64
			for i, ub := range h.bounds {
				cum += h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(ub), cum)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, h.Count())
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a metric value the way Prometheus expects: shortest
// round-trip representation, integers without an exponent.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
