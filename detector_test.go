package deepvalidation

// Tests of the Detector's check body: ε and its boundary, the verdict
// statistics (lifetime, recent window, per class), their telemetry,
// and batch/sequential equivalence at every worker count. Each test
// loads a private copy of the committed golden pair, so statistics
// start from zero and no training runs.

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"deepvalidation/internal/core"
	"deepvalidation/internal/telemetry"
)

// goldenDetector loads a fresh detector from the committed golden pair
// with the given ε.
func goldenDetector(t *testing.T, eps float64) *Detector {
	t.Helper()
	det, err := Load(goldenModelContainer, goldenValContainer)
	if err != nil {
		t.Fatal(err)
	}
	det.SetEpsilon(eps)
	return det
}

// TestDetectorStatsPartialWindow pins the documented semantics of the
// recent alarm rate before the 50-verdict window fills: the rate is
// computed over only the verdicts seen so far.
func TestDetectorStatsPartialWindow(t *testing.T) {
	det := goldenDetector(t, -1e9) // ε below every score: flag everything
	d := det.StatsDetail()
	if d.RecentWindow != 50 || d.RecentFill != 0 || d.RecentAlarmRate != 0 {
		t.Fatalf("fresh detector detail = %+v", d)
	}

	imgs, _ := benchBandImages(rand.New(rand.NewSource(71)), 14)
	const n = 7 // well below the 50-slot window
	for _, im := range imgs[:n] {
		if _, err := det.Check(im); err != nil {
			t.Fatal(err)
		}
	}
	d = det.StatsDetail()
	if d.RecentFill != n {
		t.Errorf("recent fill = %d, want %d", d.RecentFill, n)
	}
	if d.RecentAlarmRate != 1 {
		t.Errorf("partial-window alarm rate = %v, want 1 (every check flagged, rate over %d not %d)",
			d.RecentAlarmRate, n, d.RecentWindow)
	}
	if _, _, rate := det.Stats(); rate != 1 {
		t.Errorf("Stats alarm rate = %v, want 1 over the partial window", rate)
	}

	// Accept everything from here on: the window mixes 7 alarms with
	// accepts, still partially filled.
	det.SetEpsilon(1e9)
	for _, im := range imgs[n:] {
		if _, err := det.Check(im); err != nil {
			t.Fatal(err)
		}
	}
	d = det.StatsDetail()
	if d.RecentFill != 2*n {
		t.Errorf("recent fill = %d, want %d", d.RecentFill, 2*n)
	}
	if d.RecentAlarmRate != 0.5 {
		t.Errorf("mixed partial-window rate = %v, want 0.5", d.RecentAlarmRate)
	}
}

// TestDetectorStatsPerClass checks that the per-class breakdown
// partitions the totals, is keyed by predicted class, and that the
// recent window caps at its capacity.
func TestDetectorStatsPerClass(t *testing.T) {
	det := goldenDetector(t, -1e9) // flag everything
	const n = 60
	imgs, _ := benchBandImages(rand.New(rand.NewSource(72)), n)
	vs, err := det.CheckBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	d := det.StatsDetail()
	if len(d.PerClass) != det.Classes() {
		t.Fatalf("per-class entries = %d, want %d", len(d.PerClass), det.Classes())
	}
	want := make([]ClassStats, det.Classes())
	for _, v := range vs {
		want[v.Label].Checked++
		want[v.Label].Flagged++
	}
	if !reflect.DeepEqual(d.PerClass, want) {
		t.Errorf("per-class stats %+v, want %+v from the verdicts' labels", d.PerClass, want)
	}
	if d.Checked != n || d.Flagged != n {
		t.Errorf("totals = (%d, %d), want (%d, %d) with ε = -1e9", d.Checked, d.Flagged, n, n)
	}
	// The golden model is near-perfect on its own band images, so every
	// class must have seen predictions: the breakdown is genuinely per
	// class, not lumped.
	for k, c := range d.PerClass {
		if c.Checked == 0 {
			t.Errorf("class %d saw no predictions", k)
		}
	}
	if d.RecentFill != d.RecentWindow {
		t.Errorf("fill = %d, want %d after %d checks", d.RecentFill, d.RecentWindow, n)
	}
}

// TestDetectorSetEpsilon pins which side of ε the boundary falls on — a
// verdict is valid only when d < ε, so d == ε is flagged, on both the
// single and the batch path — and that the ε gauge follows SetEpsilon
// and Calibrate.
func TestDetectorSetEpsilon(t *testing.T) {
	det := goldenDetector(t, 42)
	reg := det.Telemetry()
	if got := reg.Snapshot().Gauges[core.MetricEpsilon]; got != 42 {
		t.Errorf("epsilon gauge at attach = %v, want 42", got)
	}
	probe := goldenProbe()
	ref, err := det.Check(probe)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Quarantined {
		t.Fatal("golden probe scored non-finite")
	}
	d := ref.Discrepancy
	for _, tc := range []struct {
		eps   float64
		valid bool
	}{
		{d, false},
		{math.Nextafter(d, math.Inf(1)), true},
	} {
		det.SetEpsilon(tc.eps)
		if det.Epsilon() != tc.eps {
			t.Fatalf("Epsilon = %v after SetEpsilon(%v)", det.Epsilon(), tc.eps)
		}
		if got := reg.Snapshot().Gauges[core.MetricEpsilon]; got != tc.eps {
			t.Errorf("epsilon gauge = %v after SetEpsilon(%v)", got, tc.eps)
		}
		if got, _ := det.Check(probe); got.Valid != tc.valid || got.Discrepancy != d {
			t.Errorf("Check at eps %v (d = %v): valid = %v, want %v", tc.eps, got.Discrepancy, got.Valid, tc.valid)
		}
		if got, _ := det.CheckBatch([]Image{probe}); got[0].Valid != tc.valid {
			t.Errorf("CheckBatch at eps %v (d = %v): valid = %v, want %v", tc.eps, got[0].Discrepancy, got[0].Valid, tc.valid)
		}
	}
	clean, _ := benchBandImages(rand.New(rand.NewSource(73)), 30)
	eps, err := det.Calibrate(clean, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if det.Epsilon() != eps {
		t.Fatal("Calibrate did not store ε")
	}
	if got := reg.Snapshot().Gauges[core.MetricEpsilon]; got != eps {
		t.Errorf("epsilon gauge = %v after Calibrate, want %v", got, eps)
	}
}

// TestCheckBatchMatchesCheckAcrossWorkers: at 1, 2 and 4 workers, a
// batch check yields the verdicts and the full StatsDetail (recent ring
// included) of a sequential Check loop on an identical detector.
func TestCheckBatchMatchesCheckAcrossWorkers(t *testing.T) {
	// More images than the recent window, so its contents depend on
	// the order the batch records them in.
	imgs, _ := benchBandImages(rand.New(rand.NewSource(74)), 70)
	const eps = 1.0
	seq := goldenDetector(t, eps)
	want := make([]Verdict, len(imgs))
	for i, im := range imgs {
		v, err := seq.Check(im)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	valid := 0
	for _, v := range want {
		if v.Valid {
			valid++
		}
	}
	if valid == 0 || valid == len(want) {
		t.Fatalf("ε = %v accepts %d of %d images; the test needs a mix", eps, valid, len(want))
	}
	for _, workers := range []int{1, 2, 4} {
		det := goldenDetector(t, eps)
		det.SetWorkers(workers)
		got, err := det.CheckBatch(imgs)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d: CheckBatch verdicts differ from the Check loop", workers)
		}
		if g, w := det.StatsDetail(), seq.StatsDetail(); !reflect.DeepEqual(g, w) {
			t.Errorf("workers=%d: StatsDetail %+v, sequential %+v", workers, g, w)
		}
		if empty, err := det.CheckBatch(nil); err != nil || len(empty) != 0 {
			t.Errorf("workers=%d: empty batch: %v, %d verdicts", workers, err, len(empty))
		}
	}
}

// TestCheckDetailedMatchesCheck: CheckDetailed returns Check's verdict
// with the per-layer discrepancies that sum to it, and a batch with a
// timing request on one member fills only that member's durations.
func TestCheckDetailedMatchesCheck(t *testing.T) {
	imgs, _ := benchBandImages(rand.New(rand.NewSource(75)), 20)
	plain, detailed := goldenDetector(t, 0), goldenDetector(t, 0)
	eps, err := plain.Calibrate(imgs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	detailed.SetEpsilon(eps)
	layers := len(plain.val.LayerIdx)
	joint := func(dt *Detail) float64 {
		s := 0.0
		for _, d := range dt.PerLayer {
			s += d
		}
		return s
	}
	for i, im := range imgs {
		want, err := plain.Check(im)
		if err != nil {
			t.Fatal(err)
		}
		var dt Detail
		got, err := detailed.CheckDetailed(im, &dt)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("image %d: CheckDetailed verdict %+v != Check %+v", i, got, want)
		}
		if len(dt.PerLayer) != layers || !reflect.DeepEqual(dt.Layers, plain.val.LayerIdx) {
			t.Fatalf("image %d: detail carries layers %v with %d values", i, dt.Layers, len(dt.PerLayer))
		}
		if math.Float64bits(joint(&dt)) != math.Float64bits(got.Discrepancy) {
			t.Fatalf("image %d: per-layer sum %v != verdict discrepancy %v", i, joint(&dt), got.Discrepancy)
		}
		if dt.Forward != 0 || dt.LayerTimes != nil {
			t.Fatalf("image %d: untimed detail recorded durations", i)
		}
	}
	if !reflect.DeepEqual(plain.StatsDetail(), detailed.StatsDetail()) {
		t.Fatalf("stats diverge: %+v vs %+v", plain.StatsDetail(), detailed.StatsDetail())
	}

	batch := goldenDetector(t, eps)
	batch.SetWorkers(3)
	details := make([]*Detail, len(imgs))
	details[4] = &Detail{}
	details[7] = &Detail{Timed: true}
	// The verdicts append to dst, leaving what it held.
	held := Verdict{Label: -1}
	vs, err := batch.CheckBatchDetailed([]Verdict{held}, imgs, details)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 1+len(imgs) || vs[0] != held {
		t.Fatalf("CheckBatchDetailed appended to dst as %d verdicts starting %+v, want %d starting %+v", len(vs), vs[0], 1+len(imgs), held)
	}
	vs = vs[1:]
	for i, im := range imgs {
		want, _ := plain.Check(im)
		if vs[i] != want {
			t.Fatalf("batch image %d verdict %+v, Check %+v", i, vs[i], want)
		}
	}
	for _, i := range []int{4, 7} {
		if math.Float64bits(joint(details[i])) != math.Float64bits(vs[i].Discrepancy) {
			t.Fatalf("batch image %d: per-layer sum %v != verdict discrepancy %v", i, joint(details[i]), vs[i].Discrepancy)
		}
	}
	if details[4].Forward != 0 || details[4].LayerTimes != nil {
		t.Fatal("untimed batch detail recorded durations")
	}
	if details[7].Forward <= 0 || len(details[7].LayerTimes) != layers {
		t.Fatalf("timed batch detail: forward %v, %d layer times", details[7].Forward, len(details[7].LayerTimes))
	}
}

// TestDetectorTelemetryCounters: the verdict counters agree with Stats,
// the per-class families partition the totals, and every verdict —
// batched or not — observes one verdict latency and one score latency.
func TestDetectorTelemetryCounters(t *testing.T) {
	det := goldenDetector(t, 0)
	reg := det.Telemetry()
	imgs, _ := benchBandImages(rand.New(rand.NewSource(76)), 30)
	if _, err := det.Calibrate(imgs, 0.1); err != nil {
		t.Fatal(err)
	}
	calibrated := reg.Snapshot().Histograms[core.MetricScoreLatency].Count
	for _, im := range imgs[:10] {
		if _, err := det.Check(im); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := det.CheckBatch(imgs[10:]); err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	n := int64(len(imgs))
	if got := s.Counters[core.MetricChecked]; got != n {
		t.Errorf("checked counter = %d, want %d", got, n)
	}
	checked, flagged, _ := det.Stats()
	if int64(checked) != s.Counters[core.MetricChecked] || int64(flagged) != s.Counters[core.MetricFlagged] {
		t.Errorf("telemetry (%d, %d) disagrees with Stats (%d, %d)",
			s.Counters[core.MetricChecked], s.Counters[core.MetricFlagged], checked, flagged)
	}
	var classChecked, classFlagged int64
	for k := 0; k < det.Classes(); k++ {
		classChecked += s.Counters[telemetry.Label(core.MetricClassChecked, "class", strconv.Itoa(k))]
		classFlagged += s.Counters[telemetry.Label(core.MetricClassFlagged, "class", strconv.Itoa(k))]
	}
	if classChecked != s.Counters[core.MetricChecked] || classFlagged != s.Counters[core.MetricFlagged] {
		t.Errorf("per-class counters sum to (%d, %d), totals (%d, %d)",
			classChecked, classFlagged, s.Counters[core.MetricChecked], s.Counters[core.MetricFlagged])
	}
	if got := s.Histograms[core.MetricVerdictLatency].Count; got != n {
		t.Errorf("verdict latency count = %d, want %d", got, n)
	}
	if got := s.Histograms[core.MetricScoreLatency].Count - calibrated; got != n {
		t.Errorf("score latency count advanced by %d over the checks, want %d", got, n)
	}
}

// TestDetectorConcurrentChecks runs Check and CheckBatch from several
// goroutines while others read Stats and StatsDetail (including the
// partial-window path) and clone the validator; under -race this is the
// stats surface's race coverage. Every check must be counted exactly
// once.
func TestDetectorConcurrentChecks(t *testing.T) {
	det := goldenDetector(t, 0.5)
	det.SetWorkers(2)
	imgs, _ := benchBandImages(rand.New(rand.NewSource(77)), 16)

	const goroutines, perG, batchEvery = 4, 15, 5
	var checkers, observers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		checkers.Add(1)
		go func(g int) {
			defer checkers.Done()
			for i := 0; i < perG; i++ {
				if _, err := det.Check(imgs[(g*7+i)%len(imgs)]); err != nil {
					t.Error(err)
					return
				}
				if i%batchEvery == 0 {
					if _, err := det.CheckBatch(imgs[:3]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	observers.Add(2)
	go func() {
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			c := det.val.Clone()
			if err := c.Validate(); err != nil {
				t.Error(err)
				return
			}
			_ = c.HasDriftReference()
		}
	}()
	go func() {
		defer observers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			checked, flagged, rate := det.Stats()
			if flagged > checked {
				t.Errorf("flagged %d > checked %d", flagged, checked)
				return
			}
			s := det.StatsDetail()
			if s.RecentFill > s.RecentWindow || (s.RecentFill == 0 && s.RecentAlarmRate != 0) {
				t.Errorf("inconsistent snapshot %+v", s)
				return
			}
			if rate < 0 || rate > 1 || s.RecentAlarmRate < 0 || s.RecentAlarmRate > 1 {
				t.Errorf("alarm rate out of range: %v / %v", rate, s.RecentAlarmRate)
				return
			}
		}
	}()
	checkers.Wait()
	close(stop)
	observers.Wait()

	s := det.StatsDetail()
	if want := goroutines * (perG + 3*((perG+batchEvery-1)/batchEvery)); s.Checked != want {
		t.Fatalf("checked = %d, want %d", s.Checked, want)
	}
	sum := 0
	for _, cs := range s.PerClass {
		sum += cs.Checked
	}
	if sum != s.Checked {
		t.Fatalf("per-class checked sums to %d, want %d", sum, s.Checked)
	}
}
