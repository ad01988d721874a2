package deepvalidation

// One benchmark per paper table/figure. Each regenerates its artifact
// through the experiment harness at QuickScale; `cmd/dvbench -scale
// full` produces the paper-scale numbers recorded in EXPERIMENTS.md.
// The shared lab fixture trains its models once (outside the timed
// region) and caches every expensive artifact, so the benchmarks time
// the experiment computation itself, not model training.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"deepvalidation/internal/core"
	"deepvalidation/internal/experiment"
	"deepvalidation/internal/telemetry"
)

var benchLab struct {
	once sync.Once
	lab  *experiment.Lab
	err  error
}

func benchFixture(b *testing.B) *experiment.Lab {
	b.Helper()
	benchLab.once.Do(func() {
		dir, err := os.MkdirTemp("", "dv-bench-*")
		if err != nil {
			benchLab.err = err
			return
		}
		lab := experiment.NewLab(experiment.QuickScale(), dir)
		// Pre-build the digits scenario and corpus so benchmarks time
		// the experiments, not the training.
		s, err := lab.Scenario("digits")
		if err != nil {
			benchLab.err = err
			return
		}
		if _, err := lab.Corpus(s); err != nil {
			benchLab.err = err
			return
		}
		benchLab.lab = lab
	})
	if benchLab.err != nil {
		b.Fatal(benchLab.err)
	}
	return benchLab.lab
}

// BenchmarkTable3 regenerates Table III (model accuracy + confidence).
func BenchmarkTable3(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table3("digits"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5 regenerates Table V (corner-case success rates).
func BenchmarkTable5(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table5("digits"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (example corner-case images).
func BenchmarkFigure2(b *testing.B) {
	lab := benchFixture(b)
	dir := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure2("digits", dir); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3 regenerates Figure 3 (discrepancy distributions).
func BenchmarkFigure3(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure3("digits"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable6 regenerates Table VI (per-layer and joint ROC-AUC).
func BenchmarkTable6(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table6("digits"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7 regenerates Table VII (DV vs feature squeezing vs
// KDE).
func BenchmarkTable7(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table7("digits"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8 regenerates Table VIII (white-box attacks). The
// attack suite is generated once into the fixture's cache; iterations
// time scoring and table assembly.
func BenchmarkTable8(b *testing.B) {
	lab := benchFixture(b)
	if _, err := lab.Table8(); err != nil { // populate the attack cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Table8(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (detection rate vs distortion).
func BenchmarkFigure4(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.Figure4("digits", 0.059); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWeightedJoint times the joint-weighting ablation.
func BenchmarkAblationWeightedJoint(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.AblationWeightedJoint("digits"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNu times the ν-sensitivity ablation (refits the
// validator per ν).
func BenchmarkAblationNu(b *testing.B) {
	lab := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lab.AblationNu("digits", []float64{0.1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorCheck times the public API's end-to-end runtime
// check: one tapped forward pass plus per-layer SVM evaluations — the
// overhead Deep Validation adds to every inference in production.
func BenchmarkDetectorCheck(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	imgs, labels := benchBandImages(rng, 150)
	det, err := Build(imgs, labels, BuildConfig{
		Classes: 3, Epochs: 12, Width: 4, FCWidth: 16,
		SVMPerClass: 50, SVMFeatures: 64, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	probe := imgs[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Check(probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectorBuild times detector construction end to end
// (training + validator fitting) at toy size.
func BenchmarkDetectorBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	imgs, labels := benchBandImages(rng, 90)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(imgs, labels, BuildConfig{
			Classes: 3, Epochs: 6, Width: 4, FCWidth: 16,
			SVMPerClass: 30, SVMFeatures: 64, Seed: 5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoad times Load of the golden container pair: both files
// read, checksummed and decoded, and the pair cross-checked.
func BenchmarkLoad(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Load(goldenModelContainer, goldenValContainer); err != nil {
			b.Fatal(err)
		}
	}
}

// benchWorkerCounts returns the worker counts the pipeline benchmarks
// sweep: the sequential baseline, the 2- and 4-wide pools (so the
// committed snapshot records the multicore scaling curve, not just its
// endpoints), and GOMAXPROCS when it exceeds 4, deduped and ascending.
// On single-core machines the >1 entries measure pool overhead rather
// than speedup.
func benchWorkerCounts() []int {
	counts := []int{1}
	for _, w := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		if w > counts[len(counts)-1] {
			counts = append(counts, w)
		}
	}
	return counts
}

// BenchmarkFit times validator fitting (Algorithm 1: tapped forward
// passes + feature reduction + per-(layer, class) SVM fits) across
// worker counts. The fitted validator is bit-identical at every worker
// count; only throughput changes.
func BenchmarkFit(b *testing.B) {
	lab := benchFixture(b)
	s, err := lab.Scenario("digits")
	if err != nil {
		b.Fatal(err)
	}
	xs, ys := s.Dataset.TrainX[:400], s.Dataset.TrainY[:400]
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.Config{Nu: 0.1, MaxPerClass: 40, MaxFeatures: 128, Workers: workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Fit(s.Net, xs, ys, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScoreBatch times batch scoring (Algorithm 2 per sample) at
// worker counts 1 and GOMAXPROCS over the digits test set — the hot
// path of every ROC/ablation experiment and of production batch
// checking.
func BenchmarkScoreBatch(b *testing.B) {
	lab := benchFixture(b)
	s, err := lab.Scenario("digits")
	if err != nil {
		b.Fatal(err)
	}
	xs := s.Dataset.TestX
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Validator.ScoreBatchWorkers(s.Net, xs, workers)
			}
		})
	}
}

// BenchmarkScoreBatchTelemetry is BenchmarkScoreBatch with a live
// metrics registry attached — the acceptance bar is <5% regression
// versus the plain benchmark, since each score adds only atomic
// increments and a bucket search. The validator is cloned so the
// shared fixture stays uninstrumented for the other benchmarks.
func BenchmarkScoreBatchTelemetry(b *testing.B) {
	lab := benchFixture(b)
	s, err := lab.Scenario("digits")
	if err != nil {
		b.Fatal(err)
	}
	xs := s.Dataset.TestX
	for _, workers := range benchWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			v := s.Validator.Clone()
			v.SetTelemetry(telemetry.New())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.ScoreBatchWorkers(s.Net, xs, workers)
			}
		})
	}
}

// benchEntry is one measured configuration in BENCH_pipeline.json.
type benchEntry struct {
	Name        string  `json:"name"`
	Workers     int     `json:"workers"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	Samples     int     `json:"samples_per_op"`
	SpeedupVsW1 float64 `json:"speedup_vs_workers1"`
}

// telemetrySummary records the observability numbers of one
// instrumented pass over the score set, plus the measured cost of
// leaving the registry attached to the scoring hot path.
type telemetrySummary struct {
	Checked          int64   `json:"checked"`
	Flagged          int64   `json:"flagged"`
	FlagRate         float64 `json:"flag_rate"`
	VerdictP50Ms     float64 `json:"verdict_latency_p50_ms"`
	VerdictP95Ms     float64 `json:"verdict_latency_p95_ms"`
	VerdictP99Ms     float64 `json:"verdict_latency_p99_ms"`
	ScoreOverheadPct float64 `json:"score_batch_overhead_pct"`
	OverheadUnder5   bool    `json:"overhead_under_5pct"`
}

// TestBenchPipelineSnapshot regenerates BENCH_pipeline.json, the
// committed perf trajectory of the parallel scoring & fitting pipeline.
// It is gated behind DV_BENCH_SNAPSHOT=1 (see `make snapshot`) so
// ordinary test runs stay fast and timing-independent.
func TestBenchPipelineSnapshot(t *testing.T) {
	if os.Getenv("DV_BENCH_SNAPSHOT") == "" {
		t.Skip("set DV_BENCH_SNAPSHOT=1 to refresh BENCH_pipeline.json")
	}
	dir, err := os.MkdirTemp("", "dv-snap-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	lab := experiment.NewLab(experiment.QuickScale(), dir)
	s, err := lab.Scenario("digits")
	if err != nil {
		t.Fatal(err)
	}
	fitX, fitY := s.Dataset.TrainX[:400], s.Dataset.TrainY[:400]
	scoreX := s.Dataset.TestX
	maxWorkers := runtime.GOMAXPROCS(0)

	var entries []benchEntry
	measure := func(name string, workers, samples int, fn func()) benchEntry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		e := benchEntry{
			Name:        name,
			Workers:     workers,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
			Samples:     samples,
		}
		entries = append(entries, e)
		return e
	}

	var fitBaseline, scoreBaseline int64
	for _, workers := range benchWorkerCounts() {
		w := workers
		e := measure("Fit", w, len(fitX), func() {
			cfg := core.Config{Nu: 0.1, MaxPerClass: 40, MaxFeatures: 128, Workers: w}
			if _, err := core.Fit(s.Net, fitX, fitY, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if w == 1 {
			fitBaseline = e.NsPerOp
		}
	}
	for _, workers := range benchWorkerCounts() {
		w := workers
		e := measure("ScoreBatch", w, len(scoreX), func() {
			s.Validator.ScoreBatchWorkers(s.Net, scoreX, w)
		})
		if w == 1 {
			scoreBaseline = e.NsPerOp
		}
	}

	// Telemetry overhead: the same sequential ScoreBatch with a live
	// registry attached. The instrumented validator is a clone so the
	// plain entries above stay uninstrumented.
	telV := s.Validator.Clone()
	telV.SetTelemetry(telemetry.New())
	telE := measure("ScoreBatchTelemetry", 1, len(scoreX), func() {
		telV.ScoreBatchWorkers(s.Net, scoreX, 1)
	})
	overheadPct := (float64(telE.NsPerOp)/float64(scoreBaseline) - 1) * 100

	fitSpeedup, scoreSpeedup := 1.0, 1.0
	for i := range entries {
		switch entries[i].Name {
		case "Fit":
			entries[i].SpeedupVsW1 = float64(fitBaseline) / float64(entries[i].NsPerOp)
			if entries[i].Workers > 1 && entries[i].SpeedupVsW1 > fitSpeedup {
				fitSpeedup = entries[i].SpeedupVsW1
			}
		case "ScoreBatch", "ScoreBatchTelemetry":
			entries[i].SpeedupVsW1 = float64(scoreBaseline) / float64(entries[i].NsPerOp)
			if entries[i].Name == "ScoreBatch" && entries[i].Workers > 1 && entries[i].SpeedupVsW1 > scoreSpeedup {
				scoreSpeedup = entries[i].SpeedupVsW1
			}
		}
	}

	// One instrumented detector pass over the score set records the
	// operator-facing numbers (same ones dvvalidate/dvbench print with
	// -telemetry) into the snapshot.
	reg := telemetry.New()
	det := assemble(s.Net, s.Validator.Clone())
	det.AttachTelemetry(reg)
	if _, err := det.Calibrate(ImagesOf(fitX[:200]), 0.05); err != nil {
		t.Fatal(err)
	}
	if _, err := det.CheckBatch(ImagesOf(scoreX)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	vl := snap.Histograms[core.MetricVerdictLatency]
	checked := snap.Counters[core.MetricChecked]
	flagged := snap.Counters[core.MetricFlagged]
	telSummary := telemetrySummary{
		Checked:          checked,
		Flagged:          flagged,
		FlagRate:         float64(flagged) / float64(checked),
		VerdictP50Ms:     vl.P50 * 1e3,
		VerdictP95Ms:     vl.P95 * 1e3,
		VerdictP99Ms:     vl.P99 * 1e3,
		ScoreOverheadPct: overheadPct,
		OverheadUnder5:   overheadPct < 5,
	}

	note := "speedup_vs_workers1 compares against the sequential baseline on this machine; " +
		"the >=2x ScoreBatch bar applies at GOMAXPROCS >= 4 (parallel and sequential results are bit-identical at any width)"
	if maxWorkers < 4 {
		note = fmt.Sprintf("snapshot machine exposes only %d CPU(s), so wall-clock speedup cannot materialize here; "+
			"entries with workers > 1 measure worker-pool overhead on one core. "+
			"The >=2x ScoreBatch bar applies at GOMAXPROCS >= 4 — rerun `make snapshot` on a multicore host to record it.", maxWorkers)
	}
	snapshot := struct {
		Generated       string           `json:"generated"`
		GoVersion       string           `json:"go_version"`
		GOMAXPROCS      int              `json:"gomaxprocs"`
		CPU             int              `json:"num_cpu"`
		Scale           string           `json:"scale"`
		Note            string           `json:"note"`
		Benchmarks      []benchEntry     `json:"benchmarks"`
		FitSpeedup      float64          `json:"fit_speedup"`
		ScoreSpeedup    float64          `json:"score_batch_speedup"`
		SpeedupAtLeast2 bool             `json:"score_batch_speedup_at_least_2x"`
		Telemetry       telemetrySummary `json:"telemetry"`
	}{
		Generated:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOMAXPROCS:      maxWorkers,
		CPU:             runtime.NumCPU(),
		Scale:           "quick (digits: 400 fit samples, 300 score samples)",
		Note:            note,
		Benchmarks:      entries,
		FitSpeedup:      fitSpeedup,
		ScoreSpeedup:    scoreSpeedup,
		SpeedupAtLeast2: scoreSpeedup >= 2,
		Telemetry:       telSummary,
	}
	data, err := json.MarshalIndent(snapshot, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_pipeline.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("Fit speedup %.2fx, ScoreBatch speedup %.2fx at GOMAXPROCS=%d",
		fitSpeedup, scoreSpeedup, maxWorkers)
	t.Logf("telemetry: %d checked, flag rate %.3f, verdict p50/p95/p99 = %.3f/%.3f/%.3f ms, score overhead %+.2f%%",
		telSummary.Checked, telSummary.FlagRate,
		telSummary.VerdictP50Ms, telSummary.VerdictP95Ms, telSummary.VerdictP99Ms, overheadPct)
	if maxWorkers >= 4 && scoreSpeedup < 2 {
		t.Errorf("ScoreBatch speedup %.2fx < 2x at GOMAXPROCS=%d", scoreSpeedup, maxWorkers)
	}
}

func benchBandImages(rng *rand.Rand, n int) ([]Image, []int) {
	var xs []Image
	var ys []int
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		px := make([]float64, 64)
		for j := range px {
			px[j] = 0.15 * rng.Float64()
		}
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				px[y*8+x] = 0.8 + 0.2*rng.Float64()
			}
		}
		xs = append(xs, Image{Channels: 1, Height: 8, Width: 8, Pixels: px})
		ys = append(ys, k)
	}
	return xs, ys
}
