// Package obs is the observability layer: a concurrency-safe metrics
// registry (counters, gauges, histograms) with JSON snapshot export, a
// bounded per-session event trace dumpable as JSONL, and an admin HTTP
// handler exposing the registry and net/http/pprof. It is stdlib-only and
// designed for hot paths: every update is a handful of atomic operations,
// and all entry points are nil-safe so instrumented code needs no "is
// observability on?" branches.
package obs

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. Nil-safe.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Nil-safe (0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down (queue depths, rates).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// value returns the last stored value. Nil-safe (0).
func (g *Gauge) value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets, tracking count,
// sum, min and max. Updates are lock-free; Snapshot may run concurrently
// with writers (it sees a near-point-in-time view: counts may be ahead of
// or behind the sum by in-flight observations, never torn values).
type Histogram struct {
	bounds  []float64 // ascending upper bounds; immutable after creation
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat
	min     atomicMin
	max     atomicMax
}

// defaultHistogramBounds is an exponential ladder that suits most of the
// quantities the repo observes (bytes, milliseconds, queue lengths).
var defaultHistogramBounds = []float64{
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5, 2.5e5, 5e5, 1e6,
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defaultHistogramBounds
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{bounds: b, buckets: make([]atomic.Int64, len(b)+1)}
	h.min.bits.Store(math.Float64bits(math.Inf(1)))
	h.max.bits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample. NaN samples are ignored. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	// Buckets are few (tens); linear scan beats binary search in practice.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
	h.min.observe(v)
	h.max.observe(v)
}

// atomicFloat is a CAS-looped float64 accumulator.
type atomicFloat struct {
	bits atomic.Uint64
}

func (a *atomicFloat) add(v float64) {
	for {
		old := a.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if a.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (a *atomicFloat) load() float64 { return math.Float64frombits(a.bits.Load()) }

type atomicMin struct {
	bits atomic.Uint64
}

func (a *atomicMin) observe(v float64) {
	for {
		old := a.bits.Load()
		if v >= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

type atomicMax struct {
	bits atomic.Uint64
}

func (a *atomicMax) observe(v float64) {
	for {
		old := a.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Registry names and owns a set of metrics. The zero value is not usable;
// call NewRegistry. All methods are nil-safe: a nil registry hands out
// detached metrics that accept updates but appear in no snapshot, so
// instrumented components run unchanged with observability off.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return new(Counter)
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
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return new(Gauge)
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
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given bucket upper bounds (defaultHistogramBounds when none are given).
// Bounds are fixed at creation; later calls with different bounds return
// the existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
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
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSnapshot is the exported state of one histogram.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Buckets holds one cumulative count per upper bound in Bounds, plus a
	// final overflow entry (observations above the last bound).
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Snapshot is a point-in-time JSON-marshalable view of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot exports every metric. Safe to call concurrently with updates.
// Nil-safe (empty snapshot).
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return snap
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		snap.Gauges[name] = g.value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{
			Count:   h.count.Load(),
			Sum:     h.sum.load(),
			Bounds:  h.bounds,
			Buckets: make([]int64, len(h.buckets)),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		if hs.Count > 0 {
			hs.Mean = hs.Sum / float64(hs.Count)
			hs.Min = math.Float64frombits(h.min.bits.Load())
			hs.Max = math.Float64frombits(h.max.bits.Load())
		}
		snap.Histograms[name] = hs
	}
	return snap
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
