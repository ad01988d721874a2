// Package telemetry is a dependency-free metrics layer for the hot
// paths of this repository: atomic counters, gauges, and fixed-bucket
// histograms collected in a named registry, plus lightweight timing
// spans. It exists so the runtime fail-safe the paper motivates
// (Section VI: flag invalid inputs and "call for human intervention")
// can actually be operated — per-layer discrepancy distributions,
// verdict latency quantiles, and flag rates are the signals a
// supervisor watches.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Every instrument is nil-safe: a nil
//     *Counter, *Gauge, *Histogram, or *Registry no-ops on every
//     method. Hot paths hold instrument handles resolved once from a
//     possibly-nil registry and never branch on configuration.
//  2. Race-free under the worker pools of core.Fit and
//     Validator.ScoreBatch: all mutation is atomic; observation never
//     takes a lock and never allocates.
//  3. No dependencies beyond the standard library.
//
// Metric names follow Prometheus conventions: snake_case, a unit
// suffix (_seconds, _total), and optional labels in curly braces
// rendered verbatim into the exposition format, e.g.
// dv_layer_discrepancy{layer="3"}. Use Label to build such names.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil Counter no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for Prometheus semantics; this is
// not enforced).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count; 0 for a nil Counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 that can go up and down (thresholds,
// worker counts, window fills). The zero value is ready; nil no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the current value; 0 for a nil Gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates observations into fixed buckets. Buckets are
// defined by ascending upper bounds; an implicit +Inf bucket catches
// the overflow. Observation is lock-free and allocation-free; a nil
// Histogram no-ops.
type Histogram struct {
	bounds []float64      // ascending upper bounds (exclusive of +Inf)
	counts []atomic.Int64 // len(bounds)+1; counts[i] = observations ≤ bounds[i]
	count  atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. Bounds are copied; an empty slice yields a single +Inf
// bucket (count/sum only).
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound ≥ v (Prometheus buckets are
	// inclusive upper bounds: le).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed time since t0, in seconds. When t0
// carries a monotonic clock reading (any ordinary time.Now result)
// time.Since is immune to wall-clock jumps; when it does not (a time
// that crossed serialization, or was stripped with Round) a backwards
// wall-clock step could yield a negative elapsed, which would corrupt
// the histogram sum — so negatives clamp to zero.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(elapsedSeconds(t0))
	}
}

// elapsedSeconds is time.Since clamped at zero, so a time value without
// a monotonic reading can never record a negative duration.
func elapsedSeconds(t0 time.Time) float64 {
	d := time.Since(t0)
	if d < 0 {
		d = 0
	}
	return d.Seconds()
}

// Count returns the number of observations; 0 for nil.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values; 0 for nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation within the containing bucket, the
// standard Prometheus histogram_quantile estimate. Values in the +Inf
// bucket clamp to the largest finite bound. Returns NaN when empty or
// nil.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := float64(q * float64(total))
	cum := int64(0)
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			cum += n
			continue
		}
		if float64(cum+n) >= rank {
			if i >= len(h.bounds) {
				// +Inf bucket: clamp to the largest finite bound.
				if len(h.bounds) == 0 {
					return math.NaN()
				}
				return h.bounds[len(h.bounds)-1]
			}
			lower := math.Inf(-1)
			if i > 0 {
				lower = h.bounds[i-1]
			}
			upper := h.bounds[i]
			if math.IsInf(lower, -1) {
				return upper
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + float64((upper-lower)*frac)
		}
		cum += n
	}
	if len(h.bounds) == 0 {
		return math.NaN()
	}
	return h.bounds[len(h.bounds)-1]
}

// CountAbove returns the number of observations recorded above the
// smallest bucket upper bound ≥ bound. The count is exact with respect
// to the bucket layout — no interpolation — so it is monotone under
// new observations; bounds that fall between bucket edges snap up to
// the next edge (an undercount of at most one bucket's width). This is
// the latency-SLO primitive: "requests slower than the target" with
// the target snapped onto the histogram grid. Returns 0 for nil.
func (h *Histogram) CountAbove(bound float64) int64 {
	if h == nil {
		return 0
	}
	// First bucket whose upper bound is ≥ bound; everything in later
	// buckets is strictly above that edge.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < bound {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	var above int64
	for i := lo + 1; i < len(h.counts); i++ {
		above += h.counts[i].Load()
	}
	return above
}

// atomicFloat is a float64 updated with a CAS loop so concurrent Adds
// never lose increments.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Span measures one timed region into a histogram of seconds. Start a
// span with StartSpan and finish it with End; when the histogram is
// nil the span is free (no clock read).
type Span struct {
	h     *Histogram
	start time.Time
}

// StartSpan begins timing into h. A nil h yields a no-op span.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, start: time.Now()}
}

// End records the elapsed seconds, clamped at zero: s.start normally
// holds a monotonic reading (StartSpan uses time.Now), but a Span built
// from a deserialized or Round-stripped time must still never push a
// negative sample into the histogram. Safe to call on a no-op span.
func (s Span) End() {
	if s.h != nil {
		s.h.Observe(elapsedSeconds(s.start))
	}
}

// Registry is a named collection of instruments. Lookups get-or-create
// under a mutex — hold the returned handles on hot paths rather than
// re-resolving per observation. A nil Registry returns nil instruments
// from every lookup, which in turn no-op, so "telemetry off" is a nil
// registry threaded everywhere.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
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
// bucket bounds on first use. Later calls return the existing
// histogram regardless of bounds, so one name always maps to one
// bucket layout.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Label renders name{k1="v1",k2="v2",...} from alternating key/value
// pairs, the naming convention the registry and the Prometheus
// renderer share. Panics on an odd pair count (a programming error).
func Label(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: Label(%q) called with %d label arguments (want key/value pairs)", name, len(kv)))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// ExponentialBuckets returns n ascending bounds start, start·factor,
// start·factor², ... Panics unless start > 0 and factor > 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 {
		panic("telemetry: ExponentialBuckets needs start > 0 and factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans 100µs to ~100s exponentially — wide enough
// for both a single SVM evaluation and a full validator fit stage.
var DefLatencyBuckets = ExponentialBuckets(1e-4, 2.5, 16)
