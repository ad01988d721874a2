package nn

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"deepvalidation/internal/tensor"
)

func testNet(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	net, err := NewSevenLayerCNN("test", 1, 8, 4, ArchConfig{Width: 2, FCWidth: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestSevenLayerCNNStructure(t *testing.T) {
	net := testNet(t)
	if net.NumLayers() != 7 {
		t.Fatalf("NumLayers = %d, want 7 (paper Table II)", net.NumLayers())
	}
	x := tensor.New(1, 8, 8).FillUniform(rand.New(rand.NewSource(1)), 0, 1)
	probs, taps := net.ForwardTapped(x)
	if len(taps) != 7 {
		t.Fatalf("taps = %d, want 7", len(taps))
	}
	// Shape chain per Table II: conv keeps size, pools halve it.
	wantShapes := [][]int{
		{2, 8, 8}, {2, 4, 4}, {4, 4, 4}, {4, 2, 2}, {8}, {8}, {4},
	}
	for i, want := range wantShapes {
		got := taps[i].Shape
		if len(got) != len(want) {
			t.Fatalf("tap %d shape %v, want %v", i, got, want)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("tap %d shape %v, want %v", i, got, want)
			}
		}
	}
	if probs != taps[6] {
		t.Fatal("final tap must alias the returned probabilities")
	}
	if math.Abs(probs.Sum()-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", probs.Sum())
	}
}

func TestNetworkShapeMismatchError(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	_, err := NewNetwork("bad", []int{4}, 3,
		NewDense("d", 4, 5, rng), // produces 5, not 3
	)
	if err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestNetworkDuplicateNameError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, err := NewNetwork("dup", []int{4}, 4,
		NewReLU("same"),
		NewSeq("same", NewDense("d", 4, 4, rng), NewSoftmax("sm")),
	)
	if err == nil {
		t.Fatal("expected duplicate name error")
	}
}

func TestLogitsConsistentWithSoftmax(t *testing.T) {
	net := testNet(t)
	x := tensor.New(1, 8, 8).FillUniform(rand.New(rand.NewSource(4)), 0, 1)
	probs := net.Forward(x)
	logits := net.Logits(x)
	if logits.Len() != 4 {
		t.Fatalf("logits len = %d, want 4", logits.Len())
	}
	back := SoftmaxVector(logits)
	if !back.AllClose(probs, 1e-12) {
		t.Fatal("softmax(Logits(x)) must equal Forward(x)")
	}
}

func TestPredictReturnsArgmaxAndConfidence(t *testing.T) {
	net := testNet(t)
	x := tensor.New(1, 8, 8).FillUniform(rand.New(rand.NewSource(5)), 0, 1)
	label, conf := net.Predict(x)
	probs := net.Forward(x)
	if label != probs.ArgMax() {
		t.Fatal("Predict label disagrees with Forward argmax")
	}
	if conf != probs.Data[label] {
		t.Fatal("Predict confidence disagrees with Forward")
	}
}

// TestForwardResultOutlivesNextForward: Forward runs on an arena from
// the network's free list, which the next call reuses, so it must
// return a copy. A result stays bit-equal to ForwardTapped's after
// later calls on other inputs, and two results never share memory.
func TestForwardResultOutlivesNextForward(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(6))
	x1 := tensor.New(1, 8, 8).FillUniform(rng, 0, 1)
	x2 := tensor.New(1, 8, 8).FillUniform(rng, 0, 1)
	want, _ := net.ForwardTapped(x1)
	p1 := net.Forward(x1)
	p2 := net.Forward(x2)
	net.Predict(x2)
	if &p1.Data[0] == &p2.Data[0] {
		t.Fatal("two Forward results share memory")
	}
	assertTensorBits(t, "first Forward after a second", p1, want)
}

func TestAccuracy(t *testing.T) {
	net := testNet(t)
	rng := rand.New(rand.NewSource(6))
	xs := make([]*tensor.Tensor, 10)
	ys := make([]int, 10)
	correct := 0
	for i := range xs {
		xs[i] = tensor.New(1, 8, 8).FillUniform(rng, 0, 1)
		pred, _ := net.Predict(xs[i])
		if i%2 == 0 {
			ys[i] = pred // force a hit
			correct++
		} else {
			ys[i] = (pred + 1) % 4 // force a miss
		}
	}
	acc, conf := net.Accuracy(xs, ys)
	if math.Abs(acc-float64(correct)/10) > 1e-12 {
		t.Fatalf("accuracy = %v, want %v", acc, float64(correct)/10)
	}
	if conf <= 0 || conf > 1 {
		t.Fatalf("mean confidence = %v out of range", conf)
	}
}

func TestAccuracyEmptySet(t *testing.T) {
	net := testNet(t)
	if acc, conf := net.Accuracy(nil, nil); acc != 0 || conf != 0 {
		t.Fatal("empty set should yield zeros, not NaN")
	}
}

func TestParamCountPositiveAndStable(t *testing.T) {
	net := testNet(t)
	c := net.ParamCount()
	if c <= 0 {
		t.Fatal("no parameters")
	}
	if c != net.ParamCount() {
		t.Fatal("ParamCount unstable")
	}
}

func TestCheckInput(t *testing.T) {
	net := testNet(t)
	if err := net.CheckInputShape(1, 8, 8); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if err := net.CheckInputShape(3, 8, 8); err == nil {
		t.Fatal("wrong-shaped input accepted")
	}
}

func TestDenseNetLiteBuilds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net, err := NewDenseNetLite("dn", 3, 16, 10, ArchConfig{Growth: 4, BlockConvs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLayers() != 8 {
		t.Fatalf("DenseNetLite taps = %d, want 8", net.NumLayers())
	}
	x := tensor.New(3, 16, 16).FillUniform(rng, 0, 1)
	probs, taps := net.ForwardTapped(x)
	if probs.Len() != 10 {
		t.Fatalf("output classes = %d", probs.Len())
	}
	if math.Abs(probs.Sum()-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", probs.Sum())
	}
	// Transitions halve the spatial size: 16 → 8 → 4.
	if s := taps[2].Shape; s[1] != 8 || s[2] != 8 {
		t.Fatalf("trans1 output %v, want spatial 8x8", s)
	}
	if s := taps[4].Shape; s[1] != 4 || s[2] != 4 {
		t.Fatalf("trans2 output %v, want spatial 4x4", s)
	}
}

func TestDenseNetLiteCalibrateChangesStats(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, err := NewDenseNetLite("dn", 3, 16, 10, ArchConfig{Growth: 4, BlockConvs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var xs []*tensor.Tensor
	for i := 0; i < 3; i++ {
		xs = append(xs, tensor.New(3, 16, 16).FillUniform(rng, 0, 1))
	}
	before := net.Forward(xs[0]).Clone()
	net.Calibrate(xs)
	// After calibration on non-centered data the BN stats moved, so the
	// output should change.
	after := net.Forward(xs[0])
	if after.AllClose(before, 1e-15) {
		t.Fatal("calibration had no effect on BatchNorm statistics")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	net := testNet(t)
	x := tensor.New(1, 8, 8).FillUniform(rand.New(rand.NewSource(9)), 0, 1)
	want := net.Forward(x)

	path := filepath.Join(t.TempDir(), "model.gob")
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.ModelName != "test" || loaded.Classes != 4 {
		t.Fatalf("metadata lost: %q classes=%d", loaded.ModelName, loaded.Classes)
	}
	got := loaded.Forward(x)
	if !got.AllClose(want, 0) {
		t.Fatal("loaded model disagrees with original")
	}
}

func TestSaveLoadDenseNet(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net, err := NewDenseNetLite("dn", 3, 16, 10, ArchConfig{Growth: 4, BlockConvs: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 16, 16).FillUniform(rng, 0, 1)
	net.Calibrate([]*tensor.Tensor{x})
	want := net.Forward(x)

	path := filepath.Join(t.TempDir(), "dn.gob")
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Forward(x); !got.AllClose(want, 0) {
		t.Fatal("loaded DenseNet disagrees with original (BN stats lost?)")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestOneHot(t *testing.T) {
	v := OneHot(5, 3)
	if v.Sum() != 1 || v.Data[3] != 1 {
		t.Fatalf("OneHot = %v", v.Data)
	}
}

func TestCrossEntropyFloorsProbability(t *testing.T) {
	p := tensor.From([]float64{1, 0, 0}, 3)
	loss, grad := CrossEntropy(p, 1) // true class has probability 0
	if math.IsInf(loss, 0) || math.IsNaN(loss) {
		t.Fatalf("loss = %v, must be finite", loss)
	}
	if math.IsInf(grad.Data[1], 0) {
		t.Fatal("gradient must be finite")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.gob")
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("corrupt model file accepted")
	}
}

func TestEncodeDecodeStream(t *testing.T) {
	net := testNet(t)
	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8).FillUniform(rand.New(rand.NewSource(77)), 0, 1)
	if !dec.Forward(x).AllClose(net.Forward(x), 0) {
		t.Fatal("stream round trip changed the model")
	}
}
