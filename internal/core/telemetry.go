package core

import (
	"fmt"
	"io"
	"strconv"

	"deepvalidation/internal/telemetry"
)

// Metric names for every instrument Deep Validation emits. Naming
// follows Prometheus conventions: dv_ prefix, snake_case, _total for
// counters, _seconds for timing histograms. Labeled families append
// {label="value"} via telemetry.Label.
const (
	// MetricChecked / MetricFlagged count detector verdicts; the
	// per-class families break them down by *predicted* class
	// (label class="k").
	MetricChecked      = "dv_checked_total"
	MetricFlagged      = "dv_flagged_total"
	MetricClassChecked = "dv_class_checked_total"
	MetricClassFlagged = "dv_class_flagged_total"
	// MetricInvalidInput counts inputs rejected before scoring
	// (Image.Validate / CheckInputShape failures) — malformed data, not
	// detected corner cases.
	MetricInvalidInput = "dv_invalid_input_total"
	// MetricQuarantined counts verdicts quarantined because scoring hit
	// non-finite numerics (NaN/Inf activations or discrepancies) —
	// numeric corruption, distinct from both malformed inputs and
	// detected corner cases. Quarantined verdicts also count into
	// MetricChecked/MetricFlagged.
	MetricQuarantined = "dv_quarantined_total"
	// MetricVerdictLatency is the end-to-end Detector check latency; in
	// a batch check each verdict observes the batch's amortized
	// per-sample latency (total elapsed / batch size), which is the
	// throughput-side number an operator provisions against.
	MetricVerdictLatency = "dv_verdict_latency_seconds"
	// MetricScoreLatency times Validator.Score (one tapped forward
	// pass + per-layer SVM evaluations), per sample even in batches.
	MetricScoreLatency = "dv_score_latency_seconds"
	// MetricJointDiscrepancy / MetricLayerDiscrepancy histogram the
	// Algorithm 2 scores; the layer family is labeled with the tap
	// index (layer="3").
	MetricJointDiscrepancy = "dv_joint_discrepancy"
	MetricLayerDiscrepancy = "dv_layer_discrepancy"
	// MetricEpsilon gauges the current detection threshold ε.
	MetricEpsilon = "dv_epsilon"
	// Fit-stage instruments (Algorithm 1): whole-run and per-stage
	// spans plus per-sample forward/reduce and per-(layer,class) SVM
	// fit timings.
	MetricFitTotal    = "dv_fit_total_seconds"
	MetricFitCollect  = "dv_fit_collect_seconds"
	MetricFitForward  = "dv_fit_forward_seconds"
	MetricFitReduce   = "dv_fit_reduce_seconds"
	MetricFitSVMStage = "dv_fit_svm_stage_seconds"
	MetricFitSVM      = "dv_fit_svm_fit_seconds"
	MetricFitSamples  = "dv_fit_samples_total"
	MetricFitKept     = "dv_fit_kept_total"
	// MetricFitDrift times the fit-time drift-reference snapshot (the
	// per-layer discrepancy quantiles the serving drift watch compares
	// against).
	MetricFitDrift = "dv_fit_drift_seconds"
)

// DiscrepancyBuckets cover the per-layer and joint discrepancy range:
// negative values sit inside the reference region (Eq. 2's −t(f_i(x))
// is negative for conforming activations), values near 0 straddle the
// boundary, and large positive values are far outside it.
var DiscrepancyBuckets = []float64{
	-5, -2.5, -1, -0.5, -0.25, -0.1, -0.05, 0,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25,
}

// valTelemetry holds the validator's resolved instrument handles. It
// is built once by SetTelemetry and read atomically on every Score, so
// scoring pays one pointer load when telemetry is off and no lock ever.
type valTelemetry struct {
	scoreLatency *telemetry.Histogram
	joint        *telemetry.Histogram
	layers       []*telemetry.Histogram // indexed like LayerIdx
}

// SetTelemetry attaches (or, with a nil registry, detaches) a metrics
// registry to the validator. Once attached, every Score observes its
// latency into MetricScoreLatency and its per-layer and joint
// discrepancies into the discrepancy histograms. Safe to call
// concurrently with scoring; handles swap atomically.
func (v *Validator) SetTelemetry(r *telemetry.Registry) {
	if r == nil {
		v.tel.Store(nil)
		return
	}
	t := &valTelemetry{
		scoreLatency: r.Histogram(MetricScoreLatency, telemetry.DefLatencyBuckets),
		joint:        r.Histogram(MetricJointDiscrepancy, DiscrepancyBuckets),
		layers:       make([]*telemetry.Histogram, len(v.LayerIdx)),
	}
	for p, l := range v.LayerIdx {
		name := telemetry.Label(MetricLayerDiscrepancy, "layer", strconv.Itoa(l))
		t.layers[p] = r.Histogram(name, DiscrepancyBuckets)
	}
	v.tel.Store(t)
}

// TelemetrySummary renders the operator-facing digest of a snapshot:
// totals, flag rate, and latency quantiles. Verdict latency is
// preferred; runs that score without a Detector (dvbench experiments)
// fall back to the validator's score latency.
func TelemetrySummary(w io.Writer, s telemetry.Snapshot) {
	checked := s.Counters[MetricChecked]
	flagged := s.Counters[MetricFlagged]
	invalid := s.Counters[MetricInvalidInput]
	lat, latName := s.Histograms[MetricVerdictLatency], "verdict"
	if lat.Count == 0 {
		if sl, ok := s.Histograms[MetricScoreLatency]; ok && sl.Count > 0 {
			lat, latName = sl, "score"
		}
	}
	if checked == 0 && lat.Count > 0 {
		// No Detector in the loop: report scored samples as checks.
		checked = lat.Count
	}
	fmt.Fprintln(w, "telemetry summary:")
	fmt.Fprintf(w, "  checks total               %d\n", checked)
	rate := 0.0
	if checked > 0 {
		rate = 100 * float64(flagged) / float64(checked)
	}
	fmt.Fprintf(w, "  flagged total              %d (%.1f%%)\n", flagged, rate)
	fmt.Fprintf(w, "  invalid inputs             %d\n", invalid)
	if q := s.Counters[MetricQuarantined]; q > 0 {
		fmt.Fprintf(w, "  quarantined (non-finite)   %d\n", q)
	}
	if lat.Count > 0 {
		fmt.Fprintf(w, "  %s latency p50/p95/p99  %.3fms / %.3fms / %.3fms\n",
			latName, 1e3*lat.P50, 1e3*lat.P95, 1e3*lat.P99)
	}
	if eps, ok := s.Gauges[MetricEpsilon]; ok {
		fmt.Fprintf(w, "  epsilon                    %.4f\n", eps)
	}
	if ft, ok := s.Histograms[MetricFitTotal]; ok && ft.Count > 0 {
		fmt.Fprintf(w, "  validator fits             %d (%.0fms total)\n", ft.Count, 1e3*ft.Sum)
		if sv, ok := s.Histograms[MetricFitSVM]; ok && sv.Count > 0 {
			fmt.Fprintf(w, "  svm fits p50/p95           %.3fms / %.3fms (%d fits)\n",
				1e3*sv.P50, 1e3*sv.P95, sv.Count)
		}
	}
}
