package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default bucket layouts. Latencies in the emulator range from
// sub-millisecond batches to minute-scale tuning runs; energies from
// fractions of a joule per sample to megajoule tuning budgets.
var (
	LatencyBucketsMS = []float64{
		0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500,
		1000, 2500, 5000, 10000, 30000, 60000, 120000, 300000,
	}
	SecondsBuckets  = []float64{0.1, 0.5, 1, 5, 10, 30, 60, 120, 300, 600, 1200, 1800, 3600, 7200}
	EnergyBucketsKJ = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000}
	// QueueDepthBuckets covers small integer queue positions and depths
	// (the admission queue is bounded at tens of requests).
	QueueDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64}
)

// Counter is a monotonically named int64. Nil counters no-op, so a
// disabled registry costs callers one pointer check.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Set overwrites the counter (used by checkpoint restore).
func (c *Counter) Set(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value reads the counter (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named instantaneous float64.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Non-finite
// observations are counted (in the overflow or underflow bucket) but
// excluded from sum/min/max so snapshots stay JSON-serialisable.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf overflow
	counts []int64   // len(bounds)+1
	count  int64
	finite int64
	sum    float64
	min    float64
	max    float64
}

// Observe records one sample. The nil fast path is kept in a thin
// wrapper so it inlines: a disabled histogram costs one pointer check.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v float64) {
	h.mu.Lock()
	h.count++
	idx := sort.SearchFloat64s(h.bounds, v)
	if math.IsNaN(v) {
		idx = len(h.bounds) // NaN lands in the overflow bucket
	}
	h.counts[idx]++
	if !math.IsInf(v, 0) && !math.IsNaN(v) {
		if h.finite == 0 || v < h.min {
			h.min = v
		}
		if h.finite == 0 || v > h.max {
			h.max = v
		}
		h.finite++
		h.sum += v
	}
	h.mu.Unlock()
}

// Count reports the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Quantile estimates the q-quantile (0..1) by linear interpolation
// inside the bucket holding the target rank, clamped to the observed
// min/max. Returns 0 when the histogram is empty or nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.count)
	cum := int64(0)
	for i, c := range h.counts {
		if float64(cum+c) < target {
			cum += c
			continue
		}
		lo, hi := h.bucketEdges(i)
		if c == 0 || hi <= lo {
			return clamp(lo, h.min, h.max)
		}
		frac := (target - float64(cum)) / float64(c)
		return clamp(lo+(hi-lo)*frac, h.min, h.max)
	}
	return h.max
}

// bucketEdges resolves finite interpolation edges for bucket i, using
// the observed min/max for the open-ended first and overflow buckets.
func (h *Histogram) bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		lo = h.min
	} else {
		lo = h.bounds[i-1]
	}
	if i < len(h.bounds) {
		hi = h.bounds[i]
	} else {
		hi = h.max
	}
	return lo, hi
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Registry holds named counters, gauges, and histograms. A nil
// *Registry is a valid disabled registry: lookups return nil
// instruments whose methods no-op. Safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// ascending bucket upper bounds on first use. Later calls with the
// same name reuse the existing instrument and ignore buckets.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bounds := make([]float64, len(buckets))
		copy(bounds, buckets)
		sort.Float64s(bounds)
		h = &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// CounterNames lists the registered counter names that start with
// prefix, in sorted order (nil when none does).
func (r *Registry) CounterNames(prefix string) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name := range r.counters {
		if strings.HasPrefix(name, prefix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// CounterStat is one counter in a snapshot.
type CounterStat struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeStat is one gauge in a snapshot.
type GaugeStat struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// BucketStat is one histogram bucket: the count of observations at or
// below the upper bound. The bound is formatted as a string so the
// implicit "+Inf" overflow bucket survives JSON encoding.
type BucketStat struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// HistogramStat is one histogram in a snapshot, with pre-computed
// quantiles. Min/Max/Sum cover finite observations only.
type HistogramStat struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	P50     float64      `json:"p50"`
	P95     float64      `json:"p95"`
	P99     float64      `json:"p99"`
	Buckets []BucketStat `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every instrument, sorted by name
// within each kind so serialisations are byte-stable.
type Snapshot struct {
	Counters   []CounterStat   `json:"counters,omitempty"`
	Gauges     []GaugeStat     `json:"gauges,omitempty"`
	Histograms []HistogramStat `json:"histograms,omitempty"`
}

// Snapshot captures the registry. A nil registry yields a zero value.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	r.mu.Unlock()

	var snap Snapshot
	for name, c := range counters {
		snap.Counters = append(snap.Counters, CounterStat{Name: name, Value: c.Value()})
	}
	for name, g := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeStat{Name: name, Value: g.Value()})
	}
	for name, h := range hists {
		snap.Histograms = append(snap.Histograms, h.stat(name))
	}
	sort.Slice(snap.Counters, func(i, j int) bool { return snap.Counters[i].Name < snap.Counters[j].Name })
	sort.Slice(snap.Gauges, func(i, j int) bool { return snap.Gauges[i].Name < snap.Gauges[j].Name })
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap
}

func (h *Histogram) stat(name string) HistogramStat {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistogramStat{Name: name, Count: h.count}
	if h.finite > 0 {
		st.Sum, st.Min, st.Max = h.sum, h.min, h.max
	}
	if h.count > 0 {
		st.P50 = h.quantileLocked(0.50)
		st.P95 = h.quantileLocked(0.95)
		st.P99 = h.quantileLocked(0.99)
	}
	st.Buckets = make([]BucketStat, len(h.counts))
	for i, c := range h.counts {
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		st.Buckets[i] = BucketStat{LE: le, Count: c}
	}
	return st
}

// Counter returns the value of the named counter in the snapshot, or 0.
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Histogram returns the named histogram stat and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramStat, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramStat{}, false
}

// textName renders an instrument name for the plaintext format,
// quoting it only when it would corrupt the line-oriented output
// (whitespace, quotes, control characters). Ordinary names pass
// through verbatim, so the format is unchanged for every instrument
// the pipeline registers today.
func textName(name string) string {
	for _, r := range name {
		if r == ' ' || r == '"' || r < 0x20 || r == 0x7f {
			return strconv.Quote(name)
		}
	}
	return name
}

// WriteText renders the snapshot as stable plaintext, one instrument
// per line (histograms add quantile summaries). This is the /metrics
// endpoint format.
func (s Snapshot) WriteText(w io.Writer) error {
	for _, c := range s.Counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", textName(c.Name), c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %g\n", textName(g.Name), g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if _, err := fmt.Fprintf(w, "histogram %s count=%d sum=%g min=%g max=%g p50=%g p95=%g p99=%g\n",
			textName(h.Name), h.Count, h.Sum, h.Min, h.Max, h.P50, h.P95, h.P99); err != nil {
			return err
		}
	}
	return nil
}
