// Package metrics provides the detection-quality measures used
// throughout the evaluation: ROC curves and ROC-AUC scores (the paper's
// headline metric, Section IV-D2), detection rates at fixed false
// positive rates (Section IV-D3 and Figure 4), and score histograms
// (Figure 3).
//
// Convention: a score is an anomaly score — higher means "more likely a
// corner case". Positives are true anomalies (SCCs, adversarial
// samples); negatives are clean images.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AUC computes the area under the ROC curve via the Mann–Whitney U
// statistic, counting ties as half. It returns NaN when either class is
// empty. A score of 0.5 is chance; 1.0 ranks every positive above every
// negative.
func AUC(pos, neg []float64) float64 {
	if len(pos) == 0 || len(neg) == 0 {
		return math.NaN()
	}
	// Rank-based computation handles ties exactly in O(n log n).
	type scored struct {
		v   float64
		pos bool
	}
	all := make([]scored, 0, len(pos)+len(neg))
	for _, v := range pos {
		all = append(all, scored{v, true})
	}
	for _, v := range neg {
		all = append(all, scored{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign average ranks to ties.
	rankSumPos := 0.0
	i := 0
	for i < len(all) {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		avgRank := float64(float64(i+j+1) / 2) // ranks are 1-based: (i+1 + j) / 2
		for k := i; k < j; k++ {
			if all[k].pos {
				rankSumPos += avgRank
			}
		}
		i = j
	}
	np, nn := float64(len(pos)), float64(len(neg))
	u := rankSumPos - float64(np*(np+1)/2)
	return u / (np * nn)
}

// ROCPoint is one operating point of a detector.
type ROCPoint struct {
	Threshold float64
	FPR       float64
	TPR       float64
}

// ROC returns the full ROC curve, one point per distinct threshold,
// ordered from the most permissive threshold (FPR 1) to the strictest
// (FPR 0). A sample is flagged when score ≥ threshold.
func ROC(pos, neg []float64) []ROCPoint {
	thresholds := make([]float64, 0, len(pos)+len(neg))
	thresholds = append(thresholds, pos...)
	thresholds = append(thresholds, neg...)
	sort.Float64s(thresholds)
	thresholds = dedup(thresholds)

	out := make([]ROCPoint, 0, len(thresholds)+1)
	for _, th := range thresholds {
		out = append(out, ROCPoint{
			Threshold: th,
			FPR:       fractionAtOrAbove(neg, th),
			TPR:       fractionAtOrAbove(pos, th),
		})
	}
	return out
}

// TPRAtFPR returns the best achievable true positive rate subject to
// the false positive rate not exceeding maxFPR, together with the
// threshold that achieves it.
func TPRAtFPR(pos, neg []float64, maxFPR float64) (tpr, threshold float64) {
	best := ROCPoint{Threshold: math.Inf(1), FPR: 0, TPR: 0}
	for _, p := range ROC(pos, neg) {
		if p.FPR <= maxFPR && p.TPR >= best.TPR {
			best = p
		}
	}
	return best.TPR, best.Threshold
}

// ThresholdForFPR returns the smallest threshold whose false positive
// rate on the given clean scores does not exceed fpr. Figure 4 uses
// this to equalize detectors at FPR 0.059.
func ThresholdForFPR(neg []float64, fpr float64) float64 {
	if len(neg) == 0 {
		return 0
	}
	s := append([]float64(nil), neg...)
	sort.Float64s(s)
	// Allow at most k = floor(fpr·n) negatives at or above the
	// threshold.
	k := int(fpr * float64(len(s)))
	if k >= len(s) {
		return s[0]
	}
	// Threshold just above the (k+1)-th largest negative.
	idx := len(s) - k - 1
	return math.Nextafter(s[idx], math.Inf(1))
}

// DetectionRate returns the fraction of scores at or above the
// threshold.
func DetectionRate(scores []float64, threshold float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	return fractionAtOrAbove(scores, threshold)
}

func fractionAtOrAbove(scores []float64, th float64) float64 {
	n := 0
	for _, v := range scores {
		if v >= th {
			n++
		}
	}
	return float64(n) / float64(len(scores))
}

func dedup(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Histogram is a fixed-width binning of scores, matching Figure 3's
// 200-bin score distributions.
type Histogram struct {
	Min, Max float64
	Counts   []int
	Total    int
}

// NewHistogram bins values into the given number of equal-width bins
// over [min, max] of the data. It returns an error for empty input or
// non-positive bin counts.
func NewHistogram(values []float64, bins int) (*Histogram, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("metrics: histogram of empty data")
	}
	if bins <= 0 {
		return nil, fmt.Errorf("metrics: %d bins", bins)
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	h := &Histogram{Min: lo, Max: hi, Counts: make([]int, bins), Total: len(values)}
	span := hi - lo
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) / span * float64(bins))
			if idx >= bins {
				idx = bins - 1
			}
		}
		h.Counts[idx]++
	}
	return h, nil
}

// Normalize min-max scales scores into [0, 1], the normalization of
// Figure 3's x-axis. Constant inputs map to 0.5.
func Normalize(scores []float64) []float64 {
	if len(scores) == 0 {
		return nil
	}
	lo, hi := scores[0], scores[0]
	for _, v := range scores {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make([]float64, len(scores))
	if hi == lo {
		for i := range out {
			out[i] = 0.5
		}
		return out
	}
	for i, v := range scores {
		out[i] = (v - lo) / (hi - lo)
	}
	return out
}

// QuantilesSorted returns the exact sample quantiles of sorted (which
// must be ascending) at the given probabilities, using linear
// interpolation between closest ranks (the R-7 / numpy default). It is
// deterministic — the same data and probs always yield the same bits —
// which is what lets fit-time reference sketches and serve-time live
// sketches be compared exactly. Probabilities clamp to [0, 1]; an empty
// sample yields NaNs.
func QuantilesSorted(sorted []float64, probs []float64) []float64 {
	return QuantilesSortedInto(make([]float64, len(probs)), sorted, probs)
}

// QuantilesSortedInto is QuantilesSorted writing into out, which must
// have len(probs) elements, and returning it.
func QuantilesSortedInto(out, sorted, probs []float64) []float64 {
	n := len(sorted)
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for i, q := range probs {
		if q < 0 {
			q = 0
		}
		if q > 1 {
			q = 1
		}
		pos := float64(q * float64(n-1))
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if hi >= n {
			hi = n - 1
		}
		if lo == hi {
			out[i] = sorted[lo]
			continue
		}
		frac := pos - float64(lo)
		out[i] = sorted[lo] + float64((sorted[hi]-sorted[lo])*frac)
	}
	return out
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}
