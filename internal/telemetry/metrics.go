package telemetry

import (
	"encoding/json"
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

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters are monotone).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, ascending); an implicit +Inf bucket catches the
// rest, matching Prometheus cumulative-bucket semantics.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per-bucket (non-cumulative), last is +Inf
	count  atomic.Uint64
	sumMu  sync.Mutex
	sum    float64
}

// LinearBuckets returns count buckets of the given width starting at start.
func LinearBuckets(start, width float64, count int) []float64 {
	out := make([]float64, count)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExponentialBuckets returns count buckets where the first upper bound
// is start and each subsequent bound is factor times the previous.
// Panics unless start > 0, factor > 1, and count >= 1, mirroring the
// Prometheus client contract.
func ExponentialBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExponentialBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumMu.Lock()
	h.sum += v
	h.sumMu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.sumMu.Lock()
	defer h.sumMu.Unlock()
	return h.sum
}

// Buckets returns the upper bounds and cumulative counts (Prometheus
// style: counts[i] is observations <= bounds[i]; the final entry is
// the +Inf bucket and equals Count()).
func (h *Histogram) Buckets() (bounds []float64, cumulative []uint64) {
	if h == nil {
		return nil, nil
	}
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i := range h.counts {
		acc += h.counts[i].Load()
		cumulative[i] = acc
	}
	return bounds, cumulative
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name string
	help string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds named metrics and renders them in Prometheus text or
// JSON exposition format. Get-or-create accessors make wiring
// idempotent; a nil *Registry is a no-op registry whose accessors
// return nil collectors (which are themselves no-ops).
//
// After a metric's first registration, accessor calls are lock-free
// (one sync.Map load), so hot simulation loops that re-resolve a
// counter by name every iteration do not serialize on a registry
// mutex. The mutex guards only creation and the registration-order
// slice used for stable exposition.
type Registry struct {
	byName sync.Map // string -> *metric, published fully initialized

	mu      sync.Mutex // guards creation and ordered
	ordered []*metric  // registration order, for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{}
}

func checkKind(name string, m *metric, kind metricKind) *metric {
	if m.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q re-registered with a different kind", name))
	}
	return m
}

// lookup returns the named metric, creating it with create on first
// use. Metrics are fully initialized before publication, so the
// lock-free fast path never observes a half-built collector.
func (r *Registry) lookup(name string, kind metricKind, create func() *metric) *metric {
	if v, ok := r.byName.Load(name); ok {
		return checkKind(name, v.(*metric), kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.byName.Load(name); ok {
		return checkKind(name, v.(*metric), kind)
	}
	m := create()
	r.byName.Store(name, m)
	r.ordered = append(r.ordered, m)
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindCounter, func() *metric {
		return &metric{name: name, help: help, kind: kindCounter, c: &Counter{}}
	}).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindGauge, func() *metric {
		return &metric{name: name, help: help, kind: kindGauge, g: &Gauge{}}
	}).g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (ascending; +Inf is implicit). Buckets
// are fixed at creation; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, kindHistogram, func() *metric {
		bounds := append([]float64(nil), buckets...)
		if !sort.Float64sAreSorted(bounds) {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not ascending", name))
		}
		return &metric{name: name, help: help, kind: kindHistogram,
			h: &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}}
	}).h
}

func (r *Registry) snapshot() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.ordered...)
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, m := range r.snapshot() {
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, m.help)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", m.name, m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", m.name, m.name, formatFloat(m.g.Value()))
		case kindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", m.name)
			bounds, cum := m.h.Buckets()
			for i, ub := range bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(ub), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum[len(cum)-1])
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonMetric is the JSON exposition shape of one metric.
type jsonMetric struct {
	Name    string    `json:"name"`
	Help    string    `json:"help,omitempty"`
	Type    string    `json:"type"`
	Value   *float64  `json:"value,omitempty"`   // counter, gauge
	Count   *uint64   `json:"count,omitempty"`   // histogram
	Sum     *float64  `json:"sum,omitempty"`     // histogram
	Bounds  []float64 `json:"bounds,omitempty"`  // histogram upper bounds
	Buckets []uint64  `json:"buckets,omitempty"` // cumulative counts
}

// WriteJSON renders the registry as a JSON array of metrics.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	var out []jsonMetric
	for _, m := range r.snapshot() {
		jm := jsonMetric{Name: m.name, Help: m.help}
		switch m.kind {
		case kindCounter:
			jm.Type = "counter"
			v := float64(m.c.Value())
			jm.Value = &v
		case kindGauge:
			jm.Type = "gauge"
			v := m.g.Value()
			jm.Value = &v
		case kindHistogram:
			jm.Type = "histogram"
			n, s := m.h.Count(), m.h.Sum()
			jm.Count, jm.Sum = &n, &s
			jm.Bounds, jm.Buckets = m.h.Buckets()
		}
		out = append(out, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler returns an http.Handler serving the registry: Prometheus
// text by default, JSON when the request has ?format=json.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
