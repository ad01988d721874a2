package trace

import (
	"math"
	"sort"
	"strconv"
	"testing"

	"deepvalidation/internal/metrics"
	"deepvalidation/internal/telemetry"
)

var testProbs = []float64{0.05, 0.25, 0.5, 0.75, 0.95}

// refFromSamples builds a reference the same way core.Fit does: sort,
// then exact quantiles.
func refFromSamples(samples ...[]float64) [][]float64 {
	out := make([][]float64, len(samples))
	for i, s := range samples {
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		out[i] = metrics.QuantilesSorted(sorted, testProbs)
	}
	return out
}

func ramp(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

func TestDriftWatchDisabledOnBadConfig(t *testing.T) {
	// Legacy artifacts decode with no drift fields: nil layers/ref.
	if w := NewDriftWatch(DriftConfig{}); w != nil {
		t.Fatal("empty config should disable drift")
	}
	// Mismatched shapes must disable rather than panic later.
	if w := NewDriftWatch(DriftConfig{Layers: []int{0, 1}, Probs: testProbs, Ref: refFromSamples(ramp(50, 0, 1))}); w != nil {
		t.Fatal("layer/ref length mismatch should disable drift")
	}
	if w := NewDriftWatch(DriftConfig{Layers: []int{0}, Probs: testProbs, Ref: [][]float64{{1, 2}}}); w != nil {
		t.Fatal("prob/ref length mismatch should disable drift")
	}
	var nilW *DriftWatch
	nilW.Observe([]float64{1})
	if st := nilW.Status(); st.Enabled {
		t.Fatal("nil watch must report disabled")
	}
}

func TestDriftWatchWarmingThenStable(t *testing.T) {
	reg := telemetry.New()
	w := NewDriftWatch(DriftConfig{
		Layers:   []int{2, 5},
		Probs:    testProbs,
		Ref:      refFromSamples(ramp(200, 0, 1), ramp(200, 10, 20)),
		Window:   64,
		Registry: reg,
	})
	if w == nil {
		t.Fatal("watch unexpectedly disabled")
	}
	st := w.Status()
	if !st.Enabled || !st.Warming || st.Fill != 0 || st.MinFill != DefaultDriftMinFill {
		t.Fatalf("initial status %+v", st)
	}
	// Gauges exist from construction.
	if reg.Gauge(telemetry.Label(MetricDriftScore, "layer", "2")) == nil {
		t.Fatal("drift score gauge not registered")
	}

	// Feed the same distribution as the reference: score should settle
	// near zero and no alarm.
	r0, r1 := ramp(200, 0, 1), ramp(200, 10, 20)
	for i := 0; i < 64; i++ {
		w.Observe([]float64{r0[(i*3)%200], r1[(i*7)%200]})
	}
	st = w.Status()
	if st.Warming || st.Fill != 64 || st.Alarm {
		t.Fatalf("stable status %+v", st)
	}
	if len(st.Scores) != 2 {
		t.Fatalf("want 2 scores, got %v", st.Scores)
	}
	for i, s := range st.Scores {
		if s > 0.2 {
			t.Fatalf("in-distribution score[%d] = %v, want near 0", i, s)
		}
	}
	if g := reg.Gauge(MetricDriftAlarm).Value(); g != 0 {
		t.Fatalf("alarm gauge = %v, want 0", g)
	}
	if g := reg.Gauge(MetricDriftWindowFill).Value(); g != 64 {
		t.Fatalf("fill gauge = %v, want 64", g)
	}
}

func TestDriftWatchDetectsShift(t *testing.T) {
	reg := telemetry.New()
	w := NewDriftWatch(DriftConfig{
		Layers:    []int{0, 1},
		Probs:     testProbs,
		Ref:       refFromSamples(ramp(200, 0, 1), ramp(200, 0, 1)),
		Window:    64,
		Threshold: 0.5,
		Registry:  reg,
	})
	// Layer 0 stays in distribution, layer 1 shifts by +5 (five times
	// the reference's quantile range → score ≈ 5).
	r := ramp(200, 0, 1)
	for i := 0; i < 64; i++ {
		w.Observe([]float64{r[(i*3)%200], r[(i*3)%200] + 5})
	}
	st := w.Status()
	if st.Scores[0] > 0.2 {
		t.Fatalf("unshifted layer scored %v", st.Scores[0])
	}
	if st.Scores[1] < 2 {
		t.Fatalf("shifted layer scored %v, want >> threshold", st.Scores[1])
	}
	if !st.Alarm || st.MaxScore < 2 {
		t.Fatalf("alarm not raised: %+v", st)
	}
	if g := reg.Gauge(MetricDriftAlarm).Value(); g != 1 {
		t.Fatalf("alarm gauge = %v, want 1", g)
	}
	if g := reg.Gauge(telemetry.Label(MetricDriftScore, "layer", "1")).Value(); g < 2 {
		t.Fatalf("score gauge = %v, want >= 2", g)
	}
}

func TestDriftWatchSkipsNonFinite(t *testing.T) {
	w := NewDriftWatch(DriftConfig{
		Layers: []int{0},
		Probs:  testProbs,
		Ref:    refFromSamples(ramp(100, 0, 1)),
		Window: 8,
	})
	w.Observe([]float64{math.NaN()})
	w.Observe([]float64{math.Inf(1)})
	w.Observe([]float64{0.5, 0.5}) // wrong arity
	if st := w.Status(); st.Fill != 0 {
		t.Fatalf("non-finite/malformed observations were recorded: fill=%d", st.Fill)
	}
	w.Observe([]float64{0.5})
	if st := w.Status(); st.Fill != 1 {
		t.Fatalf("finite observation dropped: fill=%d", st.Fill)
	}
}

// TestDriftWatchSlidingWindow proves old observations age out: after a
// full window of shifted values, the in-distribution prefix no longer
// dampens the score.
func TestDriftWatchSlidingWindow(t *testing.T) {
	w := NewDriftWatch(DriftConfig{
		Layers: []int{0},
		Probs:  testProbs,
		Ref:    refFromSamples(ramp(100, 0, 1)),
		Window: 32,
	})
	r := ramp(100, 0, 1)
	for i := 0; i < 32; i++ {
		w.Observe([]float64{r[(i*3)%100]})
	}
	if st := w.Status(); st.Alarm {
		t.Fatalf("alarm on in-distribution data: %+v", st)
	}
	for i := 0; i < 32; i++ {
		w.Observe([]float64{r[(i*3)%100] + 10})
	}
	st := w.Status()
	if !st.Alarm || st.Scores[0] < 5 {
		t.Fatalf("full shifted window should alarm hard: %+v", st)
	}
}

func TestDriftWatchDeterministicScores(t *testing.T) {
	build := func() *DriftWatch {
		return NewDriftWatch(DriftConfig{
			Layers: []int{3},
			Probs:  testProbs,
			Ref:    refFromSamples(ramp(100, -2, 2)),
			Window: 40,
		})
	}
	a, b := build(), build()
	r := ramp(100, -1, 3)
	for i := 0; i < 40; i++ {
		a.Observe([]float64{r[(i*7)%100]})
		b.Observe([]float64{r[(i*7)%100]})
	}
	sa, sb := a.Status(), b.Status()
	if math.Float64bits(sa.Scores[0]) != math.Float64bits(sb.Scores[0]) {
		t.Fatalf("drift score not bit-deterministic: %x vs %x",
			math.Float64bits(sa.Scores[0]), math.Float64bits(sb.Scores[0]))
	}
}

func TestDriftGaugeLabels(t *testing.T) {
	// The gauge naming must match what the Prometheus renderer expects.
	for _, l := range []int{0, 7, 12} {
		want := "dv_drift_score{layer=\"" + strconv.Itoa(l) + "\"}"
		if got := telemetry.Label(MetricDriftScore, "layer", strconv.Itoa(l)); got != want {
			t.Fatalf("label = %q, want %q", got, want)
		}
	}
}

// TestDriftRecomputeAllocatesNothing pins the watch's steady state at
// zero allocations: 16 accepted verdicts include one recompute, which
// sorts and takes quantiles in buffers the watch owns.
func TestDriftRecomputeAllocatesNothing(t *testing.T) {
	w := NewDriftWatch(DriftConfig{
		Layers: []int{1, 2},
		Probs:  testProbs,
		Ref:    refFromSamples(ramp(100, 0, 1), ramp(100, 0, 2)),
		Window: 64,
	})
	r := ramp(100, 0, 1.5)
	v := make([]float64, 2)
	i := 0
	observe16 := func() {
		for range driftRecomputeEvery {
			v[0], v[1] = r[(i*7)%100], r[(i*3)%100]
			w.Observe(v)
			i++
		}
	}
	for range 8 { // past the window and several recomputes
		observe16()
	}
	if allocs := testing.AllocsPerRun(20, observe16); allocs != 0 {
		t.Fatalf("16 Observe calls allocate %.1f objects, want 0", allocs)
	}
}
