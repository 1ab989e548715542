package obs

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe metrics registry: counters, gauges and
// histograms keyed by dotted names. Instruments are created on first
// use and returned by pointer so hot paths resolve them once and then
// update lock-free. A nil *Registry is a valid no-op recorder: it hands
// out nil instruments, whose methods all short-circuit.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// LabeledStr renders a per-instance instrument name inside the
// registry's flat namespace: LabeledStr("jobs.terminal_by_impl", "impl",
// "srslte") yields "jobs.terminal_by_impl{impl=srslte}". The registry
// has no label dimension — this convention keeps a labelled family
// greppable under one prefix while every instance stays an independent
// lock-free instrument. WritePrometheus parses the convention back into
// real Prometheus labels.
func LabeledStr(base, key, val string) string {
	return fmt.Sprintf("%s{%s=%s}", base, key, val)
}

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; nil-safe.
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Inc adds one; nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a set-to-current-value metric.
type Gauge struct{ v atomic.Int64 }

// Set records the current value; nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add shifts the gauge; nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v when v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultBuckets are the histogram upper bounds used when none are
// given: a log-ish ladder that fits both millisecond latencies and
// small cardinalities (frontier widths, iteration counts).
var DefaultBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram accumulates observations into fixed buckets plus running
// count/sum/min/max. Observations are mutex-guarded; the pipeline
// observes per level / per property / per case, never per state, so
// the lock is far off any hot path.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; implicit +Inf last
	counts []int64   // len(bounds)+1
	count  int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one value; nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// HistogramSnapshot is a histogram's frozen state, JSON-shaped for the
// manifest.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Mean    float64          `json:"mean"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// Snapshot freezes the histogram (zero value for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistogramSnapshot{Count: h.count, Sum: round3(h.sum), Min: round3(h.min), Max: round3(h.max)}
	if h.count > 0 {
		snap.Mean = round3(h.sum / float64(h.count))
	}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		if snap.Buckets == nil {
			snap.Buckets = make(map[string]int64)
		}
		label := "+Inf"
		if i < len(h.bounds) {
			label = fmt.Sprintf("le_%g", h.bounds[i])
		}
		snap.Buckets[label] = n
	}
	return snap
}

// round3 trims float noise so snapshots render stably.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// Counter returns (creating if needed) the named counter; nil registry
// returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram with the
// given upper bounds (DefaultBuckets when nil); nil-safe. The bounds of
// the first creation win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		if bounds == nil {
			bounds = DefaultBuckets
		}
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// Snapshot freezes every instrument into a JSON-marshalable map:
// counters and gauges as integers, histograms as HistogramSnapshot.
// Keys marshal sorted, so snapshots diff cleanly. Nil returns nil.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = h.Snapshot()
	}
	return out
}
