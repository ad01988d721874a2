package telemetry

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(3.5)
	if got := g.Value(); got != 3.5 {
		t.Errorf("gauge = %v, want 3.5", got)
	}
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Errorf("gauge = %v, want -1.25", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 100} {
		h.Observe(v)
	}
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=5: +{3}; +Inf: +{100}.
	snap := h.snapshot()
	wantCum := []int64{2, 4, 5, 6}
	for i, b := range snap.Buckets {
		if b.Count != wantCum[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.Count, wantCum[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+3+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0, 1]: all land in the first bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	// First-bucket quantiles clamp to the bucket's upper bound (no
	// lower bound to interpolate from).
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1 (first-bucket upper bound)", got)
	}

	h2 := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 50; i++ {
		h2.Observe(0.5) // le=1
		h2.Observe(3)   // le=4
	}
	// Rank 50 falls exactly at the end of the first bucket.
	if got := h2.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1", got)
	}
	// p75 → rank 75: 25 of 50 into the (2,4] bucket → 2 + 0.5·2 = 3.
	if got := h2.Quantile(0.75); math.Abs(got-3) > 1e-9 {
		t.Errorf("p75 = %v, want 3", got)
	}
	// Values beyond the last finite bound clamp to it.
	h3 := NewHistogram([]float64{1, 2})
	h3.Observe(50)
	if got := h3.Quantile(0.99); got != 2 {
		t.Errorf("overflow p99 = %v, want 2 (largest finite bound)", got)
	}
	// Empty histogram: NaN.
	if got := NewHistogram([]float64{1}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
}

func TestNilInstrumentsNoOp(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var r *Registry
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	StartSpan(nil).End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil instruments must read as zero")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Error("nil histogram quantile must be NaN")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x", nil) != nil {
		t.Error("nil registry must hand out nil instruments")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	c1 := r.Counter("a_total")
	c2 := r.Counter("a_total")
	if c1 != c2 {
		t.Error("same name must return the same counter")
	}
	h1 := r.Histogram("h", []float64{1, 2})
	h2 := r.Histogram("h", []float64{5, 6, 7}) // bounds ignored on re-lookup
	if h1 != h2 {
		t.Error("same name must return the same histogram")
	}
	if len(h2.bounds) != 2 {
		t.Error("first-registration bounds must win")
	}
}

func TestLabel(t *testing.T) {
	if got := Label("dv_x"); got != "dv_x" {
		t.Errorf("Label no-pairs = %q", got)
	}
	if got := Label("dv_x", "layer", "3", "class", "7"); got != `dv_x{layer="3",class="7"}` {
		t.Errorf("Label = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd label pairs must panic")
		}
	}()
	Label("dv_x", "only-key")
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 10, 3)
	if len(exp) != 3 || exp[0] != 1 || exp[1] != 10 || exp[2] != 100 {
		t.Errorf("ExponentialBuckets = %v", exp)
	}
	for i := 1; i < len(DefLatencyBuckets); i++ {
		if DefLatencyBuckets[i] <= DefLatencyBuckets[i-1] {
			t.Fatalf("DefLatencyBuckets not ascending at %d: %v", i, DefLatencyBuckets)
		}
	}
}

// TestRegistryConcurrency hammers one registry from GOMAXPROCS
// goroutines — the exact sharing pattern of the PR-1 worker pools —
// mixing lookups, observations, and snapshot reads. Run under -race
// (make race / CI) this proves the registry is race-free; the count
// assertions prove no increment is lost.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("hammer_total")
			h := r.Histogram("hammer_seconds", DefLatencyBuckets)
			g := r.Gauge("hammer_gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100) * 1e-4)
				g.Set(float64(id))
				if i%1000 == 0 {
					// Concurrent scrapes must not disturb writers.
					_ = r.Snapshot()
				}
				// Concurrent get-or-create of a fresh name.
				r.Counter(Label("hammer_labeled_total", "w", string(rune('a'+id%26)))).Inc()
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * perWorker)
	if got := r.Counter("hammer_total").Value(); got != want {
		t.Errorf("counter lost increments: %d, want %d", got, want)
	}
	if got := r.Histogram("hammer_seconds", nil).Count(); got != want {
		t.Errorf("histogram lost observations: %d, want %d", got, want)
	}
	var labeled int64
	for name, v := range r.Snapshot().Counters {
		if name != "hammer_total" {
			labeled += v
		}
	}
	if labeled != want {
		t.Errorf("labeled counters lost increments: %d, want %d", labeled, want)
	}
}

// TestObservationAllocationFree pins the hot-path contract: observing
// into live instruments and no-oping through nil ones both allocate
// nothing. (Lookups allocate; hot paths hold handles.)
func TestObservationAllocationFree(t *testing.T) {
	r := New()
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", DefLatencyBuckets)
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(1)
		h.Observe(0.01)
	}); n != 0 {
		t.Errorf("live observation allocates %v/op, want 0", n)
	}
	var nc *Counter
	var nh *Histogram
	if n := testing.AllocsPerRun(100, func() {
		nc.Inc()
		nh.Observe(0.01)
		StartSpan(nil).End()
	}); n != 0 {
		t.Errorf("nil (no-sink) path allocates %v/op, want 0", n)
	}
}

// TestSpanNegativeElapsedClamped is the regression test for the
// monotonic-time guard: a span whose start time lies in the future and
// carries no monotonic reading (Round(0) strips it, modeling a
// serialized time or a wall-clock jump) must record 0, never a
// negative sample that would corrupt the histogram sum.
func TestSpanNegativeElapsedClamped(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	s := Span{h: h, start: time.Now().Add(time.Hour).Round(0)}
	s.End()
	if got := h.Count(); got != 1 {
		t.Fatalf("Count = %d, want 1", got)
	}
	if sum := h.Sum(); sum < 0 {
		t.Fatalf("negative sample recorded: sum = %v", sum)
	}
	if sum := h.Sum(); sum != 0 {
		t.Fatalf("future start should clamp to exactly 0, got sum %v", sum)
	}

	h2 := NewHistogram([]float64{1, 10})
	h2.ObserveSince(time.Now().Add(time.Hour).Round(0))
	if h2.Sum() != 0 || h2.Count() != 1 {
		t.Fatalf("ObserveSince: sum=%v count=%d, want 0 and 1", h2.Sum(), h2.Count())
	}

	// Sanity: a genuinely elapsed interval still records positive.
	h3 := NewHistogram([]float64{1, 10})
	h3.ObserveSince(time.Now().Add(-time.Millisecond))
	if h3.Sum() <= 0 {
		t.Fatalf("real elapsed time recorded %v, want > 0", h3.Sum())
	}
}
