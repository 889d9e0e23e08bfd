package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent-safe collection of named counters, gauges and
// fixed-bucket histograms. Instrument lookup (get-or-create) takes a lock;
// hot paths should look instruments up once and hold the pointers — every
// instrument operation itself is lock-free.
//
// A registry may have a parent (see NewRunRegistry): instruments forward
// every update to the same-named instrument of the parent, so run-scoped
// registries aggregate into the process-wide one without double
// bookkeeping at the call sites.
type Registry struct {
	parent *Registry

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty standalone registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	var parent *Counter
	if r.parent != nil {
		parent = r.parent.Counter(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{parent: parent}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	var parent *Gauge
	if r.parent != nil {
		parent = r.parent.Gauge(name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{parent: parent}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given ascending bucket upper bounds (an implicit +Inf bucket is always
// appended). A second lookup of an existing histogram ignores the buckets
// argument.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	var parent *Histogram
	if r.parent != nil {
		parent = r.parent.Histogram(name, buckets)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(buckets, parent)
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v      atomic.Int64
	parent *Counter
}

// Add increments the counter by d (and the parent's counter, if any).
func (c *Counter) Add(d int64) {
	c.v.Add(d)
	if c.parent != nil {
		c.parent.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// canonicalNaNBits is the bit pattern every NaN is normalized to before
// being stored in a Gauge or a Histogram sum (the quiet NaN with an empty
// payload). float64 has 2^52 distinct NaN encodings and arithmetic may
// propagate any of them; pinning one makes Snapshot round-trips and the
// JSON output deterministic regardless of which NaN arrived.
const canonicalNaNBits = 0x7FF8000000000000

// float64bits is math.Float64bits with NaN canonicalized.
func float64bits(v float64) uint64 {
	if v != v {
		return canonicalNaNBits
	}
	return math.Float64bits(v)
}

// Gauge is a last-write-wins float metric.
type Gauge struct {
	bits   atomic.Uint64
	parent *Gauge
}

// Set stores v (and forwards it to the parent gauge, if any). NaN values
// are stored with a canonical bit pattern.
func (g *Gauge) Set(v float64) {
	g.bits.Store(float64bits(v))
	if g.parent != nil {
		g.parent.Set(v)
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets; bounds are upper
// bounds, observations land in the first bucket whose bound is >= value,
// with a final +Inf bucket catching the rest. Sum and count are tracked
// exactly (sum as integer nanos-style units via atomic adds on the bit
// pattern would lose exactness, so the sum is kept as an atomically-updated
// float via compare-and-swap).
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64
	parent  *Histogram
}

func newHistogram(bounds []float64, parent *Histogram) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds:  b,
		buckets: make([]atomic.Int64, len(b)+1),
		parent:  parent,
	}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if h.parent != nil {
		h.parent.Observe(v)
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot is a point-in-time, JSON-ready view of a registry. Map keys are
// emitted in sorted order by encoding/json, so serialization is
// deterministic for a given set of values.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is one histogram's frozen state. Buckets are cumulative
// counts per upper bound (Prometheus-style), with the +Inf bucket last.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Buckets []BucketCount `json:"buckets"`
}

// BucketCount is one histogram bucket: the upper bound (+Inf encoded as
// the string "+Inf" in JSON) and the cumulative count of observations <=
// that bound.
type BucketCount struct {
	UpperBound float64 `json:"-"`
	Count      int64   `json:"count"`
}

// MarshalJSON renders the bound explicitly so +Inf survives JSON (which
// has no infinity literal).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.UpperBound, 1) {
		le = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b.UpperBound), "0"), ".")
	}
	return json.Marshal(struct {
		LE    string `json:"le"`
		Count int64  `json:"count"`
	}{le, b.Count})
}

// Snapshot returns the histogram's frozen state: exact count and sum, and
// cumulative Prometheus-style bucket counts with the +Inf bucket last.
func (h *Histogram) Snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{Count: h.Count(), Sum: h.Sum()}
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		bound := math.Inf(1)
		if i < len(h.bounds) {
			bound = h.bounds[i]
		}
		hs.Buckets = append(hs.Buckets, BucketCount{UpperBound: bound, Count: cum})
	}
	return hs
}

// Snapshot freezes the registry's current values. Empty groups stay nil,
// so their JSON keys are omitted.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. Output is deterministic:
// encoding/json sorts map keys and the snapshot holds no timestamps.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// MergeInto copies every counter and gauge whose name starts with prefix
// into m, keyed by the name with the prefix stripped — the bridge from a
// run registry to an algorithm's Result.Stats map (see DESIGN.md,
// "Stat-key schema").
func (s Snapshot) MergeInto(m map[string]float64, prefix string) {
	if m == nil {
		return
	}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			m[name[len(prefix):]] = float64(v)
		}
	}
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, prefix) {
			m[name[len(prefix):]] = v
		}
	}
}
