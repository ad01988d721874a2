package metrics

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAUCPerfectSeparation(t *testing.T) {
	pos := []float64{5, 6, 7}
	neg := []float64{1, 2, 3}
	if got := AUC(pos, neg); got != 1 {
		t.Fatalf("AUC = %v, want 1", got)
	}
	if got := AUC(neg, pos); got != 0 {
		t.Fatalf("reversed AUC = %v, want 0", got)
	}
}

func TestAUCChance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pos := make([]float64, 3000)
	neg := make([]float64, 3000)
	for i := range pos {
		pos[i] = rng.NormFloat64()
		neg[i] = rng.NormFloat64()
	}
	if got := AUC(pos, neg); math.Abs(got-0.5) > 0.03 {
		t.Fatalf("AUC on identical distributions = %v, want ~0.5", got)
	}
}

func TestAUCTiesCountHalf(t *testing.T) {
	// All scores identical: AUC must be exactly 0.5.
	pos := []float64{1, 1, 1}
	neg := []float64{1, 1}
	if got := AUC(pos, neg); got != 0.5 {
		t.Fatalf("all-ties AUC = %v, want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// pos {3, 1}, neg {2, 0}: pairs (3>2, 3>0, 1<2, 1>0) → 3/4.
	if got := AUC([]float64{3, 1}, []float64{2, 0}); got != 0.75 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
}

func TestAUCEmptyIsNaN(t *testing.T) {
	if got := AUC(nil, []float64{1}); !math.IsNaN(got) {
		t.Fatalf("AUC with empty positives = %v, want NaN", got)
	}
}

// Property: AUC(pos, neg) + AUC(neg, pos) == 1 when there are no ties
// across classes, and AUC is invariant to any strictly increasing
// transform of the scores.
func TestPropertyAUCSymmetryAndMonotoneInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		pos := make([]float64, n)
		neg := make([]float64, n)
		for i := 0; i < n; i++ {
			pos[i] = rng.NormFloat64() + 1
			neg[i] = rng.NormFloat64()
		}
		a := AUC(pos, neg)
		b := AUC(neg, pos)
		if math.Abs(a+b-1) > 1e-12 {
			return false
		}
		mono := func(xs []float64) []float64 {
			out := make([]float64, len(xs))
			for i, v := range xs {
				out[i] = math.Exp(v/3) + 2*v
			}
			return out
		}
		return math.Abs(AUC(mono(pos), mono(neg))-a) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AUC equals the area under the empirical ROC curve computed
// by trapezoidal integration.
func TestPropertyAUCMatchesROCIntegral(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		pos := make([]float64, n)
		neg := make([]float64, n+7)
		for i := range pos {
			pos[i] = rng.NormFloat64()*2 + 1
		}
		for i := range neg {
			neg[i] = rng.NormFloat64() * 2
		}
		curve := ROC(pos, neg)
		// Append the (0,0) endpoint (threshold above everything) and
		// prepend (1,1); then integrate TPR dFPR.
		pts := append([]ROCPoint{{FPR: 1, TPR: 1}}, curve...)
		pts = append(pts, ROCPoint{FPR: 0, TPR: 0})
		// Sort along the monotone ROC path: ascending FPR, then TPR, so
		// vertical segments are traversed bottom-up.
		sort.Slice(pts, func(i, j int) bool {
			if pts[i].FPR != pts[j].FPR {
				return pts[i].FPR < pts[j].FPR
			}
			return pts[i].TPR < pts[j].TPR
		})
		area := 0.0
		for i := 1; i < len(pts); i++ {
			area += (pts[i].FPR - pts[i-1].FPR) * (pts[i].TPR + pts[i-1].TPR) / 2
		}
		return math.Abs(area-AUC(pos, neg)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestROCEndpointsAndMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pos := make([]float64, 50)
	neg := make([]float64, 50)
	for i := range pos {
		pos[i] = rng.NormFloat64() + 2
		neg[i] = rng.NormFloat64()
	}
	curve := ROC(pos, neg)
	if len(curve) == 0 {
		t.Fatal("empty ROC curve")
	}
	// Thresholds ascend, rates descend.
	for i := 1; i < len(curve); i++ {
		if curve[i].Threshold <= curve[i-1].Threshold {
			t.Fatal("thresholds not strictly ascending")
		}
		if curve[i].FPR > curve[i-1].FPR || curve[i].TPR > curve[i-1].TPR {
			t.Fatal("rates must be non-increasing in threshold")
		}
	}
	first := curve[0]
	if first.FPR != 1 && first.TPR != 1 {
		t.Fatalf("most permissive point = %+v", first)
	}
}

func TestTPRAtFPR(t *testing.T) {
	pos := []float64{0.9, 0.8, 0.7, 0.2}
	neg := []float64{0.1, 0.15, 0.3, 0.75}
	tpr, th := TPRAtFPR(pos, neg, 0.25)
	// With at most 1/4 negatives flagged, threshold must sit above 0.3;
	// the best choice catches 0.9, 0.8 and 0.7 but may include 0.75.
	if tpr < 0.75 {
		t.Fatalf("TPR@0.25 = %v, want ≥ 0.75 (threshold %v)", tpr, th)
	}
	fpr := DetectionRate(neg, th)
	if fpr > 0.25 {
		t.Fatalf("achieved FPR %v exceeds budget", fpr)
	}
}

func TestThresholdForFPR(t *testing.T) {
	neg := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	th := ThresholdForFPR(neg, 0.2) // allow 2 of 10 at or above
	got := DetectionRate(neg, th)
	if got > 0.2 {
		t.Fatalf("FPR at threshold = %v, want ≤ 0.2", got)
	}
	if got < 0.2 { // should use the full budget here (no ties)
		t.Fatalf("FPR at threshold = %v, want exactly 0.2", got)
	}
}

func TestThresholdForFPRZero(t *testing.T) {
	neg := []float64{1, 5, 3}
	th := ThresholdForFPR(neg, 0)
	if DetectionRate(neg, th) != 0 {
		t.Fatal("FPR 0 threshold still flags negatives")
	}
}

func TestDetectionRate(t *testing.T) {
	if got := DetectionRate([]float64{1, 2, 3, 4}, 2.5); got != 0.5 {
		t.Fatalf("DetectionRate = %v, want 0.5", got)
	}
	if got := DetectionRate(nil, 0); got != 0 {
		t.Fatalf("empty DetectionRate = %v, want 0", got)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram([]float64{0, 0.1, 0.5, 0.9, 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total != 5 {
		t.Fatalf("total = %d", h.Total)
	}
	sum := 0
	for _, c := range h.Counts {
		sum += c
	}
	if sum != 5 {
		t.Fatalf("counts sum to %d", sum)
	}
	// Max value lands in the last bin, not out of range.
	if h.Counts[9] == 0 {
		t.Fatal("max value not binned")
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 10); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := NewHistogram([]float64{1}, 0); err == nil {
		t.Error("zero bins accepted")
	}
}

func TestHistogramConstantData(t *testing.T) {
	h, err := NewHistogram([]float64{2, 2, 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 3 {
		t.Fatalf("constant data counts = %v", h.Counts)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{-2, 0, 2})
	want := []float64{0, 0.5, 1}
	for i, w := range want {
		if math.Abs(out[i]-w) > 1e-12 {
			t.Fatalf("Normalize[%d] = %v, want %v", i, out[i], w)
		}
	}
	flat := Normalize([]float64{3, 3})
	if flat[0] != 0.5 || flat[1] != 0.5 {
		t.Fatalf("constant Normalize = %v", flat)
	}
	if Normalize(nil) != nil {
		t.Fatal("nil input should return nil")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v", got)
	}
}

func TestQuantilesSorted(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5}
	got := QuantilesSorted(data, []float64{0, 0.25, 0.5, 0.75, 1})
	want := []float64{1, 2, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("q[%d] = %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}

	// Interpolation between ranks (R-7): median of {1,2,3,4} is 2.5.
	got = QuantilesSorted([]float64{1, 2, 3, 4}, []float64{0.5})
	if got[0] != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got[0])
	}

	// Single element: every quantile is that element.
	got = QuantilesSorted([]float64{7}, []float64{0, 0.5, 1})
	for _, v := range got {
		if v != 7 {
			t.Fatalf("singleton quantiles = %v, want all 7", got)
		}
	}

	// Empty sample yields NaNs; probs clamp to [0,1].
	got = QuantilesSorted(nil, []float64{0.5})
	if !math.IsNaN(got[0]) {
		t.Fatalf("empty sample quantile = %v, want NaN", got[0])
	}
	got = QuantilesSorted([]float64{1, 2}, []float64{-3, 9})
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("clamped quantiles = %v, want [1 2]", got)
	}

	// Determinism: identical inputs give identical bits.
	a := QuantilesSorted(data, []float64{0.05, 0.25, 0.5, 0.75, 0.95})
	b := QuantilesSorted(data, []float64{0.05, 0.25, 0.5, 0.75, 0.95})
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("quantiles not bit-deterministic at %d: %x vs %x", i, math.Float64bits(a[i]), math.Float64bits(b[i]))
		}
	}
}
