// Package obsv is the repo's dependency-free metrics layer: a registry
// of counters, gauges and histograms with Prometheus text exposition
// (DESIGN.md §15). The serving stack — daemon.Server, sweep's cache
// counters, the fleet client's failure ladder — registers here and
// GET /metrics (or repro -metrics-dump) scrapes it.
//
// The layer is observation-only by contract: nothing in this package
// (and nothing registered with it) may enter a cache key, a wire
// schema, or any Sim.Run-reachable code path. Metrics read existing
// atomic counters at scrape time or record purely operational signals
// (request latency, queue depth); figure bytes are provably unaffected
// because no result-affecting package imports obsv (daelint's
// determinism scope excludes it for the same reason it excludes the
// daemon: wall-clock time here is operational, not result-affecting).
//
// Snapshot iteration — and therefore the exposition text — is
// deterministic: families in name order, series in label-value order.
// Two scrapes of identical counter states are byte-identical.
package obsv

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type as exposed in # TYPE.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Label is one name=value pair attached to a series. Families fix their
// label names at registration; each distinct value tuple is one series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry holds metric families. The zero value is not usable; create
// with NewRegistry. All methods are safe for concurrent use; the
// get-or-create accessors (Counter, Histogram) return the same
// instance for the same name and label values, so call sites need not
// coordinate registration.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family //daelint:guardedby mu
}

// family is one named metric: a help string, a kind, fixed label names,
// and a series per label-value tuple.
type family struct {
	name       string
	help       string
	kind       Kind
	labelNames []string
	buckets    []float64          // histograms only
	series     map[string]*series // keyed by canonical label-value encoding
}

// series is one (family, label values) time series.
type series struct {
	labels []Label
	c      *Counter
	h      *Histogram
	fn     func() float64 // func-backed counter/gauge; read at snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// checkName enforces the Prometheus metric/label name charset
// ([a-zA-Z_:][a-zA-Z0-9_:]* for metrics, no colon for labels).
func checkName(name string, label bool) {
	if name == "" {
		panic("obsv: empty metric or label name")
	}
	for i, r := range name {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(!label && r == ':') || (i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("obsv: invalid metric or label name %q", name))
		}
	}
}

// seriesKey canonically encodes label values in label-name order; it is
// both the series map key and the deterministic sort key of exposition.
func seriesKey(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// familyFor returns (creating on first use) the named family, enforcing
// that every caller agrees on kind, help and label names — disagreement
// is a programming error, caught loudly.
func (r *Registry) familyFor(name, help string, kind Kind, buckets []float64, labels []Label) *family {
	checkName(name, false)
	names := make([]string, len(labels))
	for i, l := range labels {
		checkName(l.Name, true)
		names[i] = l.Name
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labelNames: names, buckets: buckets, series: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obsv: metric %s registered as %s and %s", name, f.kind, kind))
	}
	if len(f.labelNames) != len(names) {
		panic(fmt.Sprintf("obsv: metric %s registered with label sets %v and %v", name, f.labelNames, names))
	}
	for i := range names {
		if f.labelNames[i] != names[i] {
			panic(fmt.Sprintf("obsv: metric %s registered with label sets %v and %v", name, f.labelNames, names))
		}
	}
	return f
}

// seriesFor returns (creating on first use) the family's series for the
// label values.
func (f *family) seriesFor(labels []Label, make_ func() *series) *series {
	key := seriesKey(labels)
	s, ok := f.series[key]
	if !ok {
		s = make_()
		s.labels = append([]Label(nil), labels...)
		f.series[key] = s
	}
	return s
}

// Counter returns the counter series for name and labels, registering
// the family on first use. Counters only go up.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, KindCounter, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := f.seriesFor(labels, func() *series { return &series{c: &Counter{}} })
	if s.c == nil {
		panic(fmt.Sprintf("obsv: metric %s already registered func-backed", name))
	}
	return s.c
}

// Histogram returns the histogram series for name and labels,
// registering the family on first use with the given bucket upper
// bounds (ascending; +Inf is implicit). All series of one family share
// the registration-time buckets.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obsv: histogram %s buckets not ascending: %v", name, buckets))
		}
	}
	f := r.familyFor(name, help, KindHistogram, buckets, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s := f.seriesFor(labels, func() *series { return &series{h: newHistogram(f.buckets)} })
	return s.h
}

// CounterFunc registers a counter whose value is read from fn at each
// snapshot — the bridge from existing atomic counters (sweep.CacheStats,
// FleetMetrics, the server's accounting) into the exposition without
// double bookkeeping. fn must be monotone non-decreasing and safe for
// concurrent use.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, KindCounter, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.seriesFor(labels, func() *series { return &series{fn: fn} })
}

// GaugeFunc registers a gauge read from fn at each snapshot (queue
// depths, store entry/byte usage, breaker states).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, KindGauge, nil, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f.seriesFor(labels, func() *series { return &series{fn: fn} })
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obsv: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed buckets and accumulates
// their sum. Buckets are upper bounds (le); the implicit +Inf bucket
// catches everything.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sum    atomic.Int64   // float64 bits
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		new_ := int64(math.Float64bits(math.Float64frombits(uint64(old)) + v))
		if h.sum.CompareAndSwap(old, new_) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(uint64(h.sum.Load())) }

// ExpBuckets returns n ascending bucket bounds start, start*factor,
// start*factor^2, ... — the fixed exponential ladder latency
// histograms use.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obsv: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the repo-standard request-latency ladder: 100µs
// doubling to ~3.3s (in seconds), wide enough for a cold sweep and
// fine enough to see a warm cache hit.
var LatencyBuckets = ExpBuckets(0.0001, 2, 16)
