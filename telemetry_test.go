package deepvalidation

import (
	"math/rand"
	"strings"
	"testing"

	"deepvalidation/internal/core"
)

// The detector fixture is shared across tests, so telemetry assertions
// work on counter deltas around each exercise, never absolutes.

func TestDetectorTelemetryAccessor(t *testing.T) {
	det := builtDetector(t)
	reg := det.Telemetry()
	if reg == nil {
		t.Fatal("Telemetry() returned nil")
	}
	if again := det.Telemetry(); again != reg {
		t.Error("Telemetry() is not idempotent; got a second registry")
	}

	rng := rand.New(rand.NewSource(31))
	xs, _ := bandImages(rng, 12)

	before := reg.Snapshot()
	for _, im := range xs[:4] {
		if _, err := det.Check(im); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := det.CheckBatch(xs[4:]); err != nil {
		t.Fatal(err)
	}
	after := reg.Snapshot()

	if d := after.Counters[core.MetricChecked] - before.Counters[core.MetricChecked]; d != 12 {
		t.Errorf("dv_checked_total advanced by %d, want 12", d)
	}
	if d := after.Histograms[core.MetricVerdictLatency].Count - before.Histograms[core.MetricVerdictLatency].Count; d != 12 {
		t.Errorf("verdict latency observations advanced by %d, want 12", d)
	}
	if after.Gauges[core.MetricEpsilon] != det.Epsilon() {
		t.Errorf("epsilon gauge = %v, want %v", after.Gauges[core.MetricEpsilon], det.Epsilon())
	}

	// The registry renders while checks run elsewhere; spot-check the
	// Prometheus text carries the counter family.
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "# TYPE dv_checked_total counter") {
		t.Error("Prometheus text lacks dv_checked_total family")
	}
}

func TestDetectorInvalidInputCounted(t *testing.T) {
	det := builtDetector(t)
	reg := det.Telemetry()

	bad := Image{Channels: 1, Height: 8, Width: 8, Pixels: make([]float64, 10)}
	wrongGeom := Image{Channels: 1, Height: 4, Width: 4, Pixels: make([]float64, 16)}

	before := reg.Snapshot()
	if _, err := det.Check(bad); err == nil {
		t.Fatal("Check accepted a malformed image")
	}
	if _, err := det.Check(wrongGeom); err == nil {
		t.Fatal("Check accepted a wrong-geometry image")
	}
	after := reg.Snapshot()
	if d := after.Counters[core.MetricInvalidInput] - before.Counters[core.MetricInvalidInput]; d != 2 {
		t.Errorf("dv_invalid_input_total advanced by %d, want 2", d)
	}
	if d := after.Counters[core.MetricChecked] - before.Counters[core.MetricChecked]; d != 0 {
		t.Errorf("rejected inputs advanced dv_checked_total by %d", d)
	}
}

// TestDetectorBatchInvalidAllCounted pins the batch-path fix: every
// invalid image in a batch is counted, not only the first one the
// returned error names. That holds for both kinds of rejection: an
// image failing Image.Validate, and a well-formed image whose geometry
// does not match the network's input, whose error text is pinned.
func TestDetectorBatchInvalidAllCounted(t *testing.T) {
	det := builtDetector(t)
	reg := det.Telemetry()

	rng := rand.New(rand.NewSource(32))
	xs, _ := bandImages(rng, 3)
	bad := Image{Channels: 1, Height: 8, Width: 8, Pixels: make([]float64, 10)}
	batch := []Image{xs[0], bad, xs[1], bad, bad, xs[2]}

	before := reg.Snapshot()
	_, err := det.CheckBatch(batch)
	if err == nil {
		t.Fatal("CheckBatch accepted a batch with malformed images")
	}
	if !strings.Contains(err.Error(), "image 1:") {
		t.Errorf("batch error %q does not name the first bad index", err)
	}
	after := reg.Snapshot()
	if d := after.Counters[core.MetricInvalidInput] - before.Counters[core.MetricInvalidInput]; d != 3 {
		t.Errorf("dv_invalid_input_total advanced by %d, want 3 (all invalid images)", d)
	}
	if d := after.Counters[core.MetricChecked] - before.Counters[core.MetricChecked]; d != 0 {
		t.Errorf("failed batch advanced dv_checked_total by %d", d)
	}

	wrong := Image{Channels: 1, Height: 28, Width: 28, Pixels: make([]float64, 28*28)}
	if err := wrong.Validate(); err != nil {
		t.Fatalf("mismatched-geometry probe must pass Image.Validate: %v", err)
	}
	const shapeErr = `nn: network "detector" expects input shape [1 8 8] (64 elements), got [1 28 28]`
	for _, tc := range []struct {
		name    string
		check   func() error
		wantErr string
		invalid int64
	}{
		{"batch", func() error {
			_, err := det.CheckBatch([]Image{xs[0], wrong, bad, xs[1], wrong})
			return err
		}, "image 1: " + shapeErr, 3},
		{"check", func() error {
			_, err := det.Check(wrong)
			return err
		}, shapeErr, 1},
		{"calibrate", func() error {
			_, err := det.Calibrate([]Image{wrong, xs[0], bad}, 0.1)
			return err
		}, "image 0: " + shapeErr, 2},
	} {
		before := reg.Snapshot()
		err := tc.check()
		if err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
		after := reg.Snapshot()
		if d := after.Counters[core.MetricInvalidInput] - before.Counters[core.MetricInvalidInput]; d != tc.invalid {
			t.Errorf("%s: dv_invalid_input_total advanced by %d, want %d", tc.name, d, tc.invalid)
		}
		if d := after.Counters[core.MetricChecked] - before.Counters[core.MetricChecked]; d != 0 {
			t.Errorf("%s: rejected input advanced dv_checked_total by %d", tc.name, d)
		}
	}
}

func TestDetectorStatsDetail(t *testing.T) {
	det := builtDetector(t)
	rng := rand.New(rand.NewSource(33))
	xs, _ := bandImages(rng, 9)
	if _, err := det.CheckBatch(xs); err != nil {
		t.Fatal(err)
	}

	d := det.StatsDetail()
	checked, flagged, rate := det.Stats()
	if d.Checked != checked || d.Flagged != flagged || d.RecentAlarmRate != rate {
		t.Errorf("StatsDetail (%d, %d, %v) disagrees with Stats (%d, %d, %v)",
			d.Checked, d.Flagged, d.RecentAlarmRate, checked, flagged, rate)
	}
	if d.RecentWindow != 50 {
		t.Errorf("recent window = %d, want 50", d.RecentWindow)
	}
	if d.RecentFill <= 0 || d.RecentFill > d.RecentWindow {
		t.Errorf("recent fill = %d outside (0, %d]", d.RecentFill, d.RecentWindow)
	}
	if len(d.PerClass) != det.Classes() {
		t.Fatalf("per-class entries = %d, want %d", len(d.PerClass), det.Classes())
	}
	sumChecked, sumFlagged := 0, 0
	for _, c := range d.PerClass {
		sumChecked += c.Checked
		sumFlagged += c.Flagged
	}
	if sumChecked != d.Checked || sumFlagged != d.Flagged {
		t.Errorf("per-class sums (%d, %d) != totals (%d, %d)", sumChecked, sumFlagged, d.Checked, d.Flagged)
	}
}
