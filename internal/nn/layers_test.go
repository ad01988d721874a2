package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepvalidation/internal/tensor"
)

func TestReLUForward(t *testing.T) {
	x := tensor.From([]float64{-1, 0, 2, -3}, 4)
	y := NewReLU("r").Forward(x, NewContext(false, nil))
	want := []float64{0, 0, 2, 0}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("ReLU[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
	if x.Data[0] != -1 {
		t.Fatal("ReLU mutated its input")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		x := tensor.New(10).FillNormal(rng, 0, 5)
		y := SoftmaxVector(x)
		sum := 0.0
		for _, v := range y.Data {
			if v < 0 || v > 1 {
				t.Fatalf("softmax output %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax sums to %v", sum)
		}
		if y.ArgMax() != x.ArgMax() {
			t.Fatal("softmax must preserve argmax")
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := tensor.From([]float64{1000, 1001, 999}, 3)
	y := SoftmaxVector(x)
	if y.HasNaN() {
		t.Fatal("softmax overflowed on large logits")
	}
	if y.ArgMax() != 1 {
		t.Fatalf("softmax argmax = %d, want 1", y.ArgMax())
	}
}

func TestMaxPoolForward(t *testing.T) {
	x := tensor.From([]float64{
		1, 2, 5, 3,
		4, 0, 1, 1,
		0, 0, 9, 8,
		0, 7, 6, 5,
	}, 1, 4, 4)
	y := NewMaxPool2D("p", 2, 2).Forward(x, NewContext(false, nil))
	want := []float64{4, 5, 7, 9}
	if y.Shape[1] != 2 || y.Shape[2] != 2 {
		t.Fatalf("pool output shape %v, want (1,2,2)", y.Shape)
	}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	x := tensor.From([]float64{
		1, 2,
		4, 0,
	}, 1, 2, 2)
	p := NewMaxPool2D("p", 2, 2)
	ctx := NewContext(false, nil)
	p.Forward(x, ctx)
	g := p.Backward(tensor.From([]float64{10}, 1, 1, 1), ctx)
	want := []float64{0, 0, 10, 0}
	for i, w := range want {
		if g.Data[i] != w {
			t.Fatalf("pool grad[%d] = %v, want %v", i, g.Data[i], w)
		}
	}
}

func TestAvgPoolForward(t *testing.T) {
	x := tensor.From([]float64{
		1, 3,
		5, 7,
	}, 1, 2, 2)
	y := NewAvgPool2D("p", 2, 2).Forward(x, NewContext(false, nil))
	if y.Data[0] != 4 {
		t.Fatalf("avg pool = %v, want 4", y.Data[0])
	}
}

func TestGlobalAvgPoolForward(t *testing.T) {
	x := tensor.From([]float64{
		1, 2, 3, 4, // channel 0: mean 2.5
		10, 10, 10, 10, // channel 1: mean 10
	}, 2, 2, 2)
	y := NewGlobalAvgPool("g").Forward(x, NewContext(false, nil))
	if y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Fatalf("GAP = %v, want [2.5 10]", y.Data)
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(100).FillNormal(rng, 0, 1)
	d := NewDropout("d", 0.5)
	y := d.Forward(x, NewContext(false, nil))
	if !y.AllClose(x, 0) {
		t.Fatal("dropout must be identity at inference")
	}
}

func TestDropoutTrainingStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDropout("d", 0.3)
	x := tensor.New(20000).Fill(1)
	y := d.Forward(x, NewContext(true, rng))
	zeros := 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		default:
			if math.Abs(v-1/0.7) > 1e-12 {
				t.Fatalf("survivor scaled to %v, want %v", v, 1/0.7)
			}
		}
	}
	rate := float64(zeros) / float64(x.Len())
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("observed drop rate %v, want ~0.3", rate)
	}
	// Inverted dropout preserves expectation.
	if mean := y.Mean(); math.Abs(mean-1) > 0.03 {
		t.Fatalf("post-dropout mean %v, want ~1", mean)
	}
}

func TestDropoutBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate 1.0")
		}
	}()
	NewDropout("d", 1.0)
}

func TestDropoutGradientMatchesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := NewDropout("d", 0.5)
	ctx := NewContext(true, rng)
	x := tensor.New(50).Fill(2)
	y := d.Forward(x, ctx)
	g := d.Backward(tensor.New(50).Fill(1), ctx)
	for i := range y.Data {
		if (y.Data[i] == 0) != (g.Data[i] == 0) {
			t.Fatalf("gradient mask disagrees with forward mask at %d", i)
		}
	}
}

func TestBatchNormForwardUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.RunMean.Data[0] = 2
	bn.RunVar.Data[0] = 4
	x := tensor.From([]float64{2, 4, 0, 2}, 1, 2, 2)
	y := bn.Forward(x, NewContext(false, nil))
	// (x-2)/sqrt(4+eps): approximately [0, 1, -1, 0].
	want := []float64{0, 1, -1, 0}
	for i, w := range want {
		if math.Abs(y.Data[i]-w) > 1e-3 {
			t.Fatalf("BN[%d] = %v, want ~%v", i, y.Data[i], w)
		}
	}
}

func TestBatchNormCalibration(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.Momentum = 0 // single calibration sample fully replaces stats
	x := tensor.From([]float64{1, 3, 5, 7}, 1, 2, 2)
	ctx := NewCalibrationContext()
	bn.Forward(x, ctx)
	if got := bn.RunMean.Data[0]; got != 4 {
		t.Fatalf("calibrated mean = %v, want 4", got)
	}
	if got := bn.RunVar.Data[0]; got != 5 {
		t.Fatalf("calibrated variance = %v, want 5", got)
	}
}

func TestBatchNormInferenceDoesNotTouchStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	x := tensor.From([]float64{5, 5, 5, 5}, 1, 2, 2)
	bn.Forward(x, NewContext(false, nil))
	if bn.RunMean.Data[0] != 0 || bn.RunVar.Data[0] != 1 {
		t.Fatal("inference forward modified running statistics")
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("f")
	ctx := NewContext(false, nil)
	x := tensor.New(2, 3, 4).FillNormal(rand.New(rand.NewSource(5)), 0, 1)
	y := f.Forward(x, ctx)
	if y.Rank() != 1 || y.Len() != 24 {
		t.Fatalf("flatten shape %v", y.Shape)
	}
	g := f.Backward(y, ctx)
	if g.Rank() != 3 || g.Shape[0] != 2 {
		t.Fatalf("flatten backward shape %v", g.Shape)
	}
}

func TestDenseBlockOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewDenseBlock("b", 4, 3, 2, rng)
	if b.OutC() != 10 {
		t.Fatalf("OutC = %d, want 10", b.OutC())
	}
	x := tensor.New(4, 8, 8).FillNormal(rng, 0, 1)
	y := b.Forward(x, NewContext(false, nil))
	if y.Shape[0] != 10 || y.Shape[1] != 8 || y.Shape[2] != 8 {
		t.Fatalf("block output shape %v, want (10,8,8)", y.Shape)
	}
	want := b.OutShape([]int{4, 8, 8})
	if want[0] != 10 {
		t.Fatalf("OutShape = %v", want)
	}
}

func TestDenseBlockPreservesInputPrefix(t *testing.T) {
	// DenseNet's defining property: the block output's first channels
	// are the unmodified input.
	rng := rand.New(rand.NewSource(7))
	b := NewDenseBlock("b", 2, 2, 2, rng)
	x := tensor.New(2, 4, 4).FillNormal(rng, 0, 1)
	y := b.Forward(x, NewContext(false, nil))
	prefix := tensor.From(y.Data[:x.Len()], 2, 4, 4)
	if !prefix.AllClose(x, 0) {
		t.Fatal("dense block must carry its input through unchanged")
	}
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layers := []struct {
		name string
		l    Layer
		g    *tensor.Tensor
	}{
		{"conv", NewConv2D("c", 1, 1, 3, 1, 1, rng), tensor.New(1, 4, 4)},
		{"dense", NewDense("d", 4, 2, rng), tensor.New(2)},
		{"relu", NewReLU("r"), tensor.New(4)},
		{"softmax", NewSoftmax("s"), tensor.New(4)},
		{"maxpool", NewMaxPool2D("p", 2, 2), tensor.New(1, 1, 1)},
		{"flatten", NewFlatten("f"), tensor.New(4)},
		{"batchnorm", NewBatchNorm("b", 1), tensor.New(1, 2, 2)},
	}
	for _, tc := range layers {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.l.Backward(tc.g, NewContext(false, nil))
		})
	}
}
