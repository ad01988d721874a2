package core

import (
	"path/filepath"
	"strconv"
	"testing"

	"deepvalidation/internal/telemetry"
)

func TestScoreTelemetry(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	reg := telemetry.New()
	v.SetTelemetry(reg)

	const n = 10
	for i := 0; i < n; i++ {
		v.Score(net, xs[i])
	}
	s := reg.Snapshot()
	lat := s.Histograms[MetricScoreLatency]
	if lat.Count != n {
		t.Errorf("score latency count = %d, want %d", lat.Count, n)
	}
	if lat.P50 <= 0 || lat.P99 < lat.P50 {
		t.Errorf("latency quantiles implausible: p50=%v p99=%v", lat.P50, lat.P99)
	}
	if s.Histograms[MetricJointDiscrepancy].Count != n {
		t.Errorf("joint discrepancy count = %d, want %d", s.Histograms[MetricJointDiscrepancy].Count, n)
	}
	for _, l := range v.LayerIdx {
		name := telemetry.Label(MetricLayerDiscrepancy, "layer", strconv.Itoa(l))
		if got := s.Histograms[name].Count; got != n {
			t.Errorf("layer %d discrepancy count = %d, want %d", l, got, n)
		}
	}

	// Detach: no further observations.
	v.SetTelemetry(nil)
	v.Score(net, xs[0])
	if got := reg.Snapshot().Histograms[MetricScoreLatency].Count; got != n {
		t.Errorf("detached Score still observed: count = %d, want %d", got, n)
	}
}

func TestScoreBatchTelemetryUnderWorkers(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	reg := telemetry.New()
	v.SetTelemetry(reg)
	v.ScoreBatchWorkers(net, xs[:40], 4)
	if got := reg.Snapshot().Histograms[MetricScoreLatency].Count; got != 40 {
		t.Errorf("parallel batch observed %d scores, want 40", got)
	}
}

func TestFitTelemetryStages(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	reg := telemetry.New()
	v, err := Fit(net, xs, ys, Config{Nu: 0.1, MaxPerClass: 60, MaxFeatures: 64, Workers: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Histograms[MetricFitTotal].Count; got != 1 {
		t.Errorf("fit total spans = %d, want 1", got)
	}
	if got := s.Histograms[MetricFitCollect].Count; got != 1 {
		t.Errorf("collect spans = %d, want 1", got)
	}
	if got := s.Histograms[MetricFitForward].Count; got != int64(len(xs)) {
		t.Errorf("forward observations = %d, want %d (one per sample)", got, len(xs))
	}
	wantFits := int64(len(v.LayerIdx) * v.Classes)
	if got := s.Histograms[MetricFitSVM].Count; got != wantFits {
		t.Errorf("svm fit observations = %d, want %d", got, wantFits)
	}
	if got := s.Counters[MetricFitSamples]; got != int64(len(xs)) {
		t.Errorf("fit samples counter = %d, want %d", got, len(xs))
	}
	kept := s.Counters[MetricFitKept]
	if kept <= 0 || kept > int64(len(xs)) {
		t.Errorf("fit kept counter = %d, want in (0, %d]", kept, len(xs))
	}
	// Reduce observations: one per kept (correctly classified) sample.
	if got := s.Histograms[MetricFitReduce].Count; got != kept {
		t.Errorf("reduce observations = %d, want %d (one per kept sample)", got, kept)
	}
}

// TestValidatorCloneDetachesTelemetry pins Clone's contract: shared
// fitted components, independent telemetry.
func TestValidatorCloneDetachesTelemetry(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	reg := telemetry.New()
	v.SetTelemetry(reg)
	c := v.Clone()
	c.Score(net, xs[0])
	if got := reg.Snapshot().Histograms[MetricScoreLatency].Count; got != 0 {
		t.Errorf("clone leaked %d observations into the parent registry", got)
	}
	if len(c.SVMs) != len(v.SVMs) || c.Classes != v.Classes {
		t.Error("clone lost fitted components")
	}
}

// TestGobRoundTripDropsTelemetry proves the unexported telemetry slot
// survives (as detached) a save/load cycle.
func TestGobRoundTripDropsTelemetry(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	v.SetTelemetry(telemetry.New())
	path := filepath.Join(t.TempDir(), "val.gob")
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadValidator(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.New()
	loaded.SetTelemetry(reg)
	loaded.Score(net, xs[0])
	if got := reg.Snapshot().Histograms[MetricScoreLatency].Count; got != 1 {
		t.Errorf("reloaded validator observed %d scores, want 1", got)
	}
	_ = ys
}
