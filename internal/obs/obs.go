// Package obs is the observability layer for the simulation pipeline:
// atomic counters, gauges, and histograms behind a race-safe registry,
// plus lightweight span tracing (wall time and allocation deltas per
// pipeline stage). It exists so the measurement system can be measured:
// every subsystem — world construction, BGP catchment computation, the
// dnssim query loop, DITL capture/filtering, the CDN measurement planes,
// and the experiment registry — reports named metrics here.
//
// Design constraints:
//
//   - stdlib only, safe under -race: metric updates are single atomic
//     operations; handles are created once at package init.
//   - zero-allocation-cheap when disabled: metric increments never
//     allocate, and StartSpanCtx returns an inert zero Span without touching
//     the clock or runtime.MemStats unless tracing is enabled.
//   - deterministic-output-safe: nothing in this package feeds back into
//     simulation randomness or results; instrumented runs are
//     byte-identical to uninstrumented runs (verified by tests in the
//     root package).
package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and collected spans. The zero value is not
// usable; call NewRegistry. Most code uses the package-level functions,
// which operate on Default.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	names    map[string]bool

	spanMu sync.Mutex
	spans  []SpanRecord
	clock  int64 // virtual-free monotonic origin (set on first span)

	// peakHeap is the largest HeapAlloc observed at a span boundary or
	// explicit SampleHeap call (see mem.go).
	peakHeap atomic.Uint64
}

// Default is the process-wide registry the package-level functions use.
var Default = NewRegistry()

// NewRegistry creates an empty registry with tracing disabled.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Enable turns on span collection (metric updates are always live; they
// are single atomic operations and never feed back into simulation
// state).
func (r *Registry) Enable() { r.enabled.Store(true) }

// Disable turns span collection off; subsequent StartSpanCtx calls are
// no-ops.
func (r *Registry) Disable() { r.enabled.Store(false) }

// Enabled reports whether span collection is on.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

func (r *Registry) register(name string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if r.names[name] {
		panic(fmt.Sprintf("obs: duplicate metric name %q", name))
	}
	r.names[name] = true
}

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	name string
	v    atomic.Uint64
}

// NewCounter registers a counter. Duplicate names panic (metric handles
// are package-level, created once at init).
func (r *Registry) NewCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	c := &Counter{name: name}
	r.counters = append(r.counters, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric holding the latest set value.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	g := &Gauge{name: name}
	r.gauges = append(r.gauges, g)
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets spans binary exponents −64..63: every positive observation
// lands in the bucket whose upper bound is the next power of two, giving
// ≤2× quantile error across the full range the pipeline observes
// (nanoseconds to daily query volumes).
const histBuckets = 128

// Histogram accumulates positive float64 observations into power-of-two
// buckets with exact count/sum/min/max.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// NewHistogram registers a histogram.
func (r *Registry) NewHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name)
	h := &Histogram{name: name}
	h.reset()
	r.hists = append(r.hists, h)
	return h
}

func (h *Histogram) reset() {
	h.count.Store(0)
	h.sumBits.Store(0)
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

func bucketFor(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	_, exp := math.Frexp(v) // v = frac·2^exp with frac ∈ [0.5, 1)
	i := exp + 64
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 { return math.Ldexp(1, i-64) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count.Add(1)
	h.buckets[bucketFor(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// BucketCount is one cumulative histogram bucket: Count observations were
// ≤ UpperBound. Suitable for OpenMetrics `le` exposition.
type BucketCount struct {
	UpperBound float64
	Count      uint64 // cumulative
}

// Buckets returns the cumulative bucket counts for every bucket that has
// at least one direct observation, in ascending bound order. The final
// +Inf bucket (total count) is implicit — callers emitting OpenMetrics
// append it from Count(). Empty when nothing was observed.
func (h *Histogram) Buckets() []BucketCount {
	var out []BucketCount
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		out = append(out, BucketCount{UpperBound: bucketUpper(i), Count: cum})
	}
	return out
}

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Min returns the smallest observation (+Inf when empty).
func (h *Histogram) Min() float64 { return math.Float64frombits(h.minBits.Load()) }

// Max returns the largest observation (−Inf when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket bounds,
// clamped to the exact observed [Min, Max]. Returns NaN when empty or when
// q is NaN (a NaN q would otherwise slip through both range clamps and
// turn into a platform-dependent bucket target).
func (h *Histogram) Quantile(q float64) float64 {
	n := h.count.Load()
	if n == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(n)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	est := bucketUpper(histBuckets - 1)
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			est = bucketUpper(i)
			break
		}
	}
	// Clamp to the exact observed range: bucket bounds overshoot, and
	// non-positive observations all share bucket 0.
	if min := h.Min(); est < min {
		est = min
	}
	if max := h.Max(); est > max {
		est = max
	}
	return est
}

// Reset zeroes every metric value and discards collected spans; handle
// registrations survive. Used between runs and by tests.
func (r *Registry) Reset() {
	r.mu.Lock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.hists {
		h.reset()
	}
	r.mu.Unlock()

	r.spanMu.Lock()
	r.spans = nil
	r.clock = 0
	r.spanMu.Unlock()
	r.peakHeap.Store(0)
}

// HistStats is a histogram summary for snapshots.
type HistStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
}

// Snapshot is a point-in-time copy of every registered metric.
type Snapshot struct {
	Counters   map[string]uint64    `json:"counters"`
	Gauges     map[string]float64   `json:"gauges"`
	Histograms map[string]HistStats `json:"histograms"`
}

// Snapshot copies every registered metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistStats, len(r.hists)),
	}
	for _, c := range r.counters {
		s.Counters[c.name] = c.Value()
	}
	for _, g := range r.gauges {
		s.Gauges[g.name] = g.Value()
	}
	for _, h := range r.hists {
		st := HistStats{Count: h.Count(), Sum: h.Sum()}
		if st.Count > 0 {
			st.Min, st.Max = h.Min(), h.Max()
			st.P50, st.P90, st.P99 = h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99)
			st.P999 = h.Quantile(0.999)
		}
		s.Histograms[h.name] = st
	}
	return s
}

// CounterDeltas returns the counters that advanced since prev, by name.
// A counter that went backwards (the registry was Reset between the two
// snapshots) is skipped rather than wrapped: uint64 subtraction would
// otherwise report a near-2^64 delta for a counter that merely restarted.
func (s Snapshot) CounterDeltas(prev Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range s.Counters {
		if p := prev.Counters[name]; v >= p && v-p > 0 {
			out[name] = v - p
		}
	}
	return out
}

// Package-level convenience wrappers over Default.

// Enable turns on span collection on the default registry.
func Enable() { Default.Enable() }

// Disable turns off span collection on the default registry.
func Disable() { Default.Disable() }

// Enabled reports whether the default registry collects spans.
func Enabled() bool { return Default.Enabled() }

// NewCounter registers a counter on the default registry.
func NewCounter(name string) *Counter { return Default.NewCounter(name) }

// NewGauge registers a gauge on the default registry.
func NewGauge(name string) *Gauge { return Default.NewGauge(name) }

// NewHistogram registers a histogram on the default registry.
func NewHistogram(name string) *Histogram { return Default.NewHistogram(name) }

// TakeSnapshot snapshots the default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Reset resets the default registry's values and spans.
func Reset() { Default.Reset() }
