package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"deepvalidation/internal/metrics"
	"deepvalidation/internal/nn"
	"deepvalidation/internal/opt"
	"deepvalidation/internal/svm"
	"deepvalidation/internal/tensor"
)

// toyProblem builds a linearly separable 3-class problem on 1×8×8
// images: class k has a bright horizontal band in rows 2k..2k+2.
func toyProblem(rng *rand.Rand, n int) (xs []*tensor.Tensor, ys []int) {
	for i := 0; i < n; i++ {
		k := rng.Intn(3)
		img := tensor.New(1, 8, 8).FillUniform(rng, 0, 0.15)
		for y := 2 * k; y < 2*k+3; y++ {
			for x := 0; x < 8; x++ {
				img.Set(0.8+0.2*rng.Float64(), 0, y, x)
			}
		}
		xs = append(xs, img)
		ys = append(ys, k)
	}
	return xs, ys
}

// The toy fixture is trained once and shared read-only across tests.
var toyFixture struct {
	once sync.Once
	net  *nn.Network
	xs   []*tensor.Tensor
	ys   []int
	err  error
}

// trainedToyModel returns a small CNN trained to high accuracy on the
// toy problem together with its training data. The model and data are
// shared between tests; callers must not mutate them.
func trainedToyModel(t *testing.T) (*nn.Network, []*tensor.Tensor, []int) {
	t.Helper()
	toyFixture.once.Do(func() {
		rng := rand.New(rand.NewSource(11))
		net, err := nn.NewSevenLayerCNN("toy", 1, 8, 3, nn.ArchConfig{Width: 4, FCWidth: 16}, rng)
		if err != nil {
			toyFixture.err = err
			return
		}
		xs, ys := toyProblem(rng, 150)
		tr := nn.NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(12)))
		tr.BatchSize = 16
		tr.Workers = 2
		stats, err := tr.Train(xs, ys, 20)
		if err != nil {
			toyFixture.err = err
			return
		}
		if acc := stats[len(stats)-1].Accuracy; acc < 0.95 {
			toyFixture.err = fmt.Errorf("toy model accuracy %v too low for validator tests", acc)
			return
		}
		toyFixture.net, toyFixture.xs, toyFixture.ys = net, xs, ys
	})
	if toyFixture.err != nil {
		t.Fatal(toyFixture.err)
	}
	return toyFixture.net, toyFixture.xs, toyFixture.ys
}

func fitToyValidator(t *testing.T, net *nn.Network, xs []*tensor.Tensor, ys []int) *Validator {
	t.Helper()
	v, err := Fit(net, xs, ys, Config{Nu: 0.1, MaxPerClass: 60, MaxFeatures: 64, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFitProducesAllSVMs(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if len(v.LayerIdx) != net.NumLayers()-1 {
		t.Fatalf("validated layers = %d, want %d (all hidden)", len(v.LayerIdx), net.NumLayers()-1)
	}
	for p, row := range v.SVMs {
		if len(row) != 3 {
			t.Fatalf("layer %d has %d class SVMs", p, len(row))
		}
		for k, m := range row {
			if m == nil {
				t.Fatalf("SVM(%d, %d) missing", v.LayerIdx[p], k)
			}
			if len(m.Support) == 0 {
				t.Fatalf("SVM(%d, %d) has no support vectors", v.LayerIdx[p], k)
			}
		}
	}
	if v.ModelName != "toy" || v.Classes != 3 {
		t.Fatalf("metadata: %q classes=%d", v.ModelName, v.Classes)
	}
}

func TestValidatorSeparatesCleanFromCorrupted(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)

	rng := rand.New(rand.NewSource(21))
	cleanX, _ := toyProblem(rng, 60)
	cleanScores := JointScores(v.ScoreBatchWorkers(net, cleanX, 0))

	// Corner cases: pure-noise images the model never saw.
	var badX []*tensor.Tensor
	for i := 0; i < 60; i++ {
		badX = append(badX, tensor.New(1, 8, 8).FillUniform(rng, 0, 1))
	}
	badScores := JointScores(v.ScoreBatchWorkers(net, badX, 0))

	if auc := metrics.AUC(badScores, cleanScores); auc < 0.85 {
		t.Fatalf("validator AUC on noise corner cases = %v, want ≥ 0.85", auc)
	}
}

func TestScoreFieldsConsistent(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	res := v.Score(net, xs[0])
	if res.Label < 0 || res.Label >= 3 {
		t.Fatalf("label %d", res.Label)
	}
	if res.Confidence <= 0 || res.Confidence > 1 {
		t.Fatalf("confidence %v", res.Confidence)
	}
	if len(res.Layer) != len(v.LayerIdx) {
		t.Fatalf("%d layer scores for %d layers", len(res.Layer), len(v.LayerIdx))
	}
	sum := 0.0
	for _, d := range res.Layer {
		sum += d
	}
	if diff := sum - res.Joint; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("joint %v != sum of layers %v", res.Joint, sum)
	}
	// Consistency with the bare model.
	label, conf := net.Predict(xs[0])
	if label != res.Label || conf != res.Confidence {
		t.Fatal("Score prediction disagrees with Network.Predict")
	}
}

func TestWeightedJoint(t *testing.T) {
	r := Result{Layer: []float64{1, 2, 3}}
	if got := r.WeightedJoint([]float64{1, 0, 2}); got != 7 {
		t.Fatalf("WeightedJoint = %v, want 7", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on weight arity mismatch")
		}
	}()
	r.WeightedJoint([]float64{1})
}

func TestFitInputValidation(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	if _, err := Fit(net, nil, nil, DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
	if _, err := Fit(net, xs, ys[:1], DefaultConfig()); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := Fit(net, xs, ys, Config{Layers: []int{99}}); err == nil {
		t.Error("out-of-range layer accepted")
	}
	if _, err := Fit(net, xs, ys, Config{Layers: []int{6}}); err == nil {
		t.Error("output layer accepted as a validation tap")
	}
	if _, err := Fit(net, xs, ys, Config{Layers: []int{1, 1}}); err == nil {
		t.Error("duplicate layer accepted")
	}
	mixed := append([]*tensor.Tensor{tensor.New(1, 4, 4)}, xs[1:]...)
	if _, err := Fit(net, mixed, ys, DefaultConfig()); err == nil {
		t.Error("samples of differing shapes accepted")
	}
}

func TestFitSubsetOfLayers(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v, err := Fit(net, xs, ys, Config{Layers: []int{4, 5}, MaxPerClass: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.LayerIdx) != 2 || v.LayerIdx[0] != 4 || v.LayerIdx[1] != 5 {
		t.Fatalf("LayerIdx = %v", v.LayerIdx)
	}
	res := v.Score(net, xs[0])
	if len(res.Layer) != 2 {
		t.Fatalf("layer scores = %d", len(res.Layer))
	}
}

func TestRearLayers(t *testing.T) {
	net, _, _ := trainedToyModel(t)
	got := RearLayers(net, 3) // 7 taps, 6 hidden -> layers 3,4,5
	want := []int{3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("RearLayers = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RearLayers = %v, want %v", got, want)
		}
	}
	if got := RearLayers(net, 99); len(got) != 6 {
		t.Fatalf("RearLayers(99) = %v, want all 6 hidden layers", got)
	}
}

func TestValidatorSaveLoadRoundTrip(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	want := v.Score(net, xs[3])

	path := filepath.Join(t.TempDir(), "validator.gob")
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadValidator(path)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Score(net, xs[3])
	if got.Joint != want.Joint || got.Label != want.Label {
		t.Fatalf("loaded validator scores differently: %+v vs %+v", got, want)
	}
}

// TestValidateRefusesNonRBFKernel: scoring evaluates the RBF kernel
// only, so a validator holding an SVM of any other recorded kind must
// fail at load, naming the kind and the (layer, class), instead of
// being scored with the wrong kernel. The committed golden validators,
// all RBF, still load.
func TestValidateRefusesNonRBFKernel(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	base := fitToyValidator(t, net, xs, ys)
	p, k := len(base.LayerIdx)-1, 1
	for _, kind := range []svm.KernelKind{"linear", "poly", "sigmoid"} {
		v := base.Clone()
		v.SVMs = make([][]*svm.OneClass, len(base.SVMs))
		for i, row := range base.SVMs {
			v.SVMs[i] = append([]*svm.OneClass(nil), row...)
		}
		m := base.SVMs[p][k]
		v.SVMs[p][k] = &svm.OneClass{Kind: kind, Gamma: m.Gamma, Nu: m.Nu,
			Support: m.Support, Alpha: m.Alpha, Rho: m.Rho, Dim: m.Dim}
		var buf bytes.Buffer
		if err := v.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeValidator(&buf)
		if err == nil {
			t.Fatalf("kind %q: validator decoded", kind)
		}
		want := fmt.Sprintf("SVM(layer %d, class %d)", v.LayerIdx[p], k)
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), string(kind)) {
			t.Errorf("kind %q: error %q does not name the kind and %s", kind, err, want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("fitted validator refused: %v", err)
	}
	for _, name := range []string{"validator.gob", "validator.dvart", "validator_norms.dvart"} {
		if _, err := LoadValidator(filepath.Join("..", "..", "artifacts", "golden", name)); err != nil {
			t.Errorf("golden %s refused: %v", name, err)
		}
	}
}

func TestLoadValidatorMissingFile(t *testing.T) {
	if _, err := LoadValidator(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error")
	}
}

func TestStrideSubsample(t *testing.T) {
	idx := make([]int, 100)
	for i := range idx {
		idx[i] = i
	}
	out := stride(idx, 10)
	if len(out) != 10 {
		t.Fatalf("stride kept %d", len(out))
	}
	if out[0] != 0 || out[9] != 90 {
		t.Fatalf("stride coverage: %v", out)
	}
	short := stride([]int{1, 2}, 10)
	if len(short) != 2 {
		t.Fatal("stride padded a short slice")
	}
}

func TestFitReducer(t *testing.T) {
	tests := []struct {
		shape    []int
		max      int
		wantPool int
	}{
		{[]int{8, 28, 28}, 256, 6},
		{[]int{8, 4, 4}, 256, 1},
		{[]int{64}, 256, 1},
		{[]int{16, 16, 16}, 64, 8},
	}
	for _, tc := range tests {
		r := fitReducer(tc.shape, tc.max)
		if r.Pool != tc.wantPool {
			t.Errorf("fitReducer(%v, %d).Pool = %d, want %d", tc.shape, tc.max, r.Pool, tc.wantPool)
		}
		if len(tc.shape) == 3 {
			if got := r.OutDim(tc.shape); got > tc.max {
				t.Errorf("reduced dim %d exceeds cap %d for %v", got, tc.max, tc.shape)
			}
		}
	}
}

func TestReduceAverages(t *testing.T) {
	x := tensor.From([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	r := FeatureReducer{Pool: 2}
	got := r.Reduce(x)
	want := []float64{3.5, 5.5, 11.5, 13.5}
	if len(got) != 4 {
		t.Fatalf("reduced length %d", len(got))
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("Reduce[%d] = %v, want %v", i, got[i], w)
		}
	}
	if got := r.OutDim(x.Shape); got != len(want) {
		t.Fatalf("OutDim = %d, want %d", got, len(want))
	}
}

func TestReduceUnevenPool(t *testing.T) {
	x := tensor.New(2, 5, 5).Fill(1)
	r := FeatureReducer{Pool: 2}
	got := r.Reduce(x)
	// ceil(5/2)=3 per side: 2*3*3 = 18 features, all averaging ones.
	if len(got) != 18 {
		t.Fatalf("reduced length %d, want 18", len(got))
	}
	for i, v := range got {
		if v != 1 {
			t.Fatalf("Reduce[%d] = %v, want 1", i, v)
		}
	}
}

func TestReduceFlatPassThrough(t *testing.T) {
	x := tensor.From([]float64{1, 2, 3}, 3)
	got := FeatureReducer{Pool: 4}.Reduce(x)
	if len(got) != 3 || got[1] != 2 {
		t.Fatalf("flat Reduce = %v", got)
	}
	// Must be a copy, not an alias.
	got[0] = 99
	if x.Data[0] == 99 {
		t.Fatal("Reduce aliased the activation")
	}
}

func TestJointAndLayerScoreExtractors(t *testing.T) {
	rs := []Result{
		{Joint: 1, Layer: []float64{0.5, 0.5}},
		{Joint: -2, Layer: []float64{-1, -1}},
	}
	js := JointScores(rs)
	if js[0] != 1 || js[1] != -2 {
		t.Fatalf("JointScores = %v", js)
	}
	ls := LayerScores(rs, 1)
	if ls[0] != 0.5 || ls[1] != -1 {
		t.Fatalf("LayerScores = %v", ls)
	}
}

// jointsEach scores xs through ScoreEach at the given worker bound and
// returns each sample's joint score, failing the test unless every
// sample is handed to Emit exactly once.
func jointsEach(t *testing.T, v *Validator, net *nn.Network, xs []*tensor.Tensor, workers int) []float64 {
	t.Helper()
	out := make([]float64, len(xs))
	hits := make([]atomic.Int32, len(xs))
	v.ScoreEach(net, len(xs), workers, Funcs{In: Tensors(xs), Out: func(i int, res *Result) {
		hits[i].Add(1)
		out[i] = res.Joint
	}}, nil)
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Errorf("sample %d emitted %d times, want 1", i, n)
		}
	}
	return out
}

// TestMonitorLifecycle runs the monitoring lifecycle on core's
// primitives, as the root Detector composes them (the name is kept
// from core's former Monitor type): ε is metrics.ThresholdForFPR over
// the clean joint scores ScoreEach emits, and a sample is valid only
// when its joint score is below ε. The Detector's own lifecycle and
// statistics are TestBuildCheckLifecycle's.
func TestMonitorLifecycle(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)

	rng := rand.New(rand.NewSource(31))
	cleanX, _ := toyProblem(rng, 40)
	clean := jointsEach(t, v, net, cleanX, 2)
	const fpr = 0.1
	eps := metrics.ThresholdForFPR(clean, fpr)

	// Clean inputs: at most the calibrated share flagged.
	valid := 0
	for i, d := range clean {
		if d < eps {
			valid++
		}
		if want := v.Score(net, cleanX[i]).Joint; math.Float64bits(d) != math.Float64bits(want) {
			t.Fatalf("clean sample %d: ScoreEach joint %v, Score joint %v", i, d, want)
		}
	}
	if flagged := len(clean) - valid; flagged > int(fpr*float64(len(clean))) {
		t.Fatalf("%d of %d clean inputs flagged at FPR %v", flagged, len(clean), fpr)
	}
	if frac := float64(valid) / float64(len(cleanX)); frac < 0.8 {
		t.Fatalf("clean validity fraction %v, want ≥ 0.8", frac)
	}

	// Noise inputs: mostly flagged.
	var noiseX []*tensor.Tensor
	for i := 0; i < 40; i++ {
		noiseX = append(noiseX, tensor.New(1, 8, 8).FillUniform(rng, 0, 1))
	}
	flagged := 0
	for _, d := range jointsEach(t, v, net, noiseX, 2) {
		if !(d < eps) {
			flagged++
		}
	}
	if frac := float64(flagged) / 40.0; frac < 0.6 {
		t.Fatalf("noise flag fraction %v, want ≥ 0.6", frac)
	}
}

// TestMonitorConstructorValidation: CheckCompat, which Load runs before
// a Detector exists, rejects what core's former Monitor constructor
// rejected — a missing half of the pair, a class-count mismatch and a
// probed layer beyond the network's hidden layers.
func TestMonitorConstructorValidation(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if err := CheckCompat(nil, v); err == nil {
		t.Error("nil network accepted")
	}
	if err := CheckCompat(net, nil); err == nil {
		t.Error("nil validator accepted")
	}
	v2 := v.Clone()
	v2.Classes = 7
	if err := CheckCompat(net, v2); err == nil {
		t.Error("class mismatch accepted")
	}
	v3 := v.Clone()
	v3.LayerIdx = []int{99}
	if err := CheckCompat(net, v3); err == nil {
		t.Error("layer overflow accepted")
	}
}

func TestFitNormalization(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if v.HasNormalization() {
		t.Fatal("normalization reported before fitting")
	}
	rng := rand.New(rand.NewSource(41))
	cleanX, _ := toyProblem(rng, 50)
	if err := v.FitNormalization(net, cleanX); err != nil {
		t.Fatal(err)
	}
	if !v.HasNormalization() {
		t.Fatal("normalization not recorded")
	}

	// Clean scores should be roughly centered after z-scoring.
	res := v.ScoreBatchWorkers(net, cleanX, 0)
	norm := v.NormalizedJointScores(res)
	mean := 0.0
	for _, s := range norm {
		mean += s
	}
	mean /= float64(len(norm))
	if mean < -1 || mean > 1 {
		t.Fatalf("normalized clean mean %v far from 0", mean)
	}

	// Normalized scores must still separate noise from clean.
	var noise []*tensor.Tensor
	for i := 0; i < 50; i++ {
		noise = append(noise, tensor.New(1, 8, 8).FillUniform(rng, 0, 1))
	}
	noiseNorm := v.NormalizedJointScores(v.ScoreBatchWorkers(net, noise, 0))
	if auc := metrics.AUC(noiseNorm, norm); auc < 0.85 {
		t.Fatalf("normalized joint AUC %v too low", auc)
	}
}

func TestFitNormalizationValidation(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	if err := v.FitNormalization(net, xs[:1]); err == nil {
		t.Fatal("single-sample normalization accepted")
	}
}

func TestNormalizedJointBeforeFitPanics(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	v.NormalizedJoint(v.Score(net, xs[0]))
}

func TestNormalizationSurvivesSerialization(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	rng := rand.New(rand.NewSource(43))
	cleanX, _ := toyProblem(rng, 30)
	if err := v.FitNormalization(net, cleanX); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.gob")
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadValidator(path)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.HasNormalization() {
		t.Fatal("normalization lost in serialization")
	}
	want := v.NormalizedJoint(v.Score(net, xs[0]))
	got := loaded.NormalizedJoint(loaded.Score(net, xs[0]))
	if want != got {
		t.Fatalf("normalized joints differ: %v vs %v", got, want)
	}
}

// TestMonitorConcurrentChecks: goroutines scoring through one shared
// validator with ScoreEach, the primitive under every Detector check
// (the name is kept from core's former Monitor type), each get every
// sample emitted exactly once, with the joint score a lone Score call
// gives. The Detector's verdict count under concurrency is
// TestDetectorConcurrentChecks's.
func TestMonitorConcurrentChecks(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	const goroutines, perG = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		batch := make([]*tensor.Tensor, perG)
		for i := range batch {
			batch[i] = xs[(g*perG+i)%len(xs)]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, d := range jointsEach(t, v, net, batch, 2) {
				if want := v.Score(net, batch[i]).Joint; math.Float64bits(d) != math.Float64bits(want) {
					t.Errorf("sample %d: concurrent joint %v, lone Score %v", i, d, want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestScoreBatchMatchesSequentialScore(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)

	// Ground truth: one sequential Score call per sample.
	want := make([]Result, 30)
	for i := range want {
		want[i] = v.Score(net, xs[i])
	}

	for _, workers := range []int{0, 1, 2, 4, 8, 64} {
		got := v.ScoreBatchWorkers(net, xs[:30], workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results for %d samples", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Label != want[i].Label || got[i].Confidence != want[i].Confidence ||
				got[i].Joint != want[i].Joint {
				t.Fatalf("workers=%d sample %d differs: %+v vs %+v", workers, i, got[i], want[i])
			}
			for p := range want[i].Layer {
				if got[i].Layer[p] != want[i].Layer[p] {
					t.Fatalf("workers=%d sample %d layer %d differs", workers, i, p)
				}
			}
		}
	}

	// Degenerate batches must round-trip through the pool untouched.
	if got := v.ScoreBatchWorkers(net, nil, 0); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	if got := v.ScoreBatchWorkers(net, nil, 8); len(got) != 0 {
		t.Fatalf("empty batch with workers returned %d results", len(got))
	}
	single := v.ScoreBatchWorkers(net, xs[:1], 8)
	if len(single) != 1 || single[0].Joint != want[0].Joint {
		t.Fatalf("single-element batch differs: %+v vs %+v", single, want[0])
	}
}

func TestSaveLoadPreservesBatchScores(t *testing.T) {
	net, xs, ys := trainedToyModel(t)
	v := fitToyValidator(t, net, xs, ys)
	fixed := xs[:40]
	want := JointScores(v.ScoreBatchWorkers(net, fixed, 0))

	path := filepath.Join(t.TempDir(), "validator.gob")
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadValidator(path)
	if err != nil {
		t.Fatal(err)
	}
	got := JointScores(loaded.ScoreBatchWorkers(net, fixed, 0))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: loaded validator Joint %v != %v", i, got[i], want[i])
		}
	}
}
