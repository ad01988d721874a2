package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepvalidation/internal/tensor"
)

// checkLayerGradients verifies a layer's analytic input and parameter
// gradients against central finite differences of the scalar loss
// L = <u, Forward(x)> for a fixed random u.
func checkLayerGradients(t *testing.T, l Layer, inShape []int, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := tensor.New(inShape...).FillNormal(rng, 0, 1)
	outShape := l.OutShape(inShape)
	u := tensor.New(outShape...).FillNormal(rng, 0, 1)

	loss := func() float64 {
		y := l.Forward(x, NewContext(false, nil))
		return y.Dot(u)
	}

	ctx := NewContext(false, nil)
	l.Forward(x, ctx)
	dX := l.Backward(u.Clone(), ctx)

	const h = 1e-5
	for i := 0; i < x.Len(); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss()
		x.Data[i] = orig - h
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-dX.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad [%d]: analytic %.8f vs numeric %.8f", i, dX.Data[i], num)
		}
	}

	for _, p := range l.Params() {
		g := ctx.Grad(p)
		if g == nil {
			t.Fatalf("no gradient recorded for %s", p.Name)
		}
		for i := 0; i < p.Value.Len(); i++ {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			lp := loss()
			p.Value.Data[i] = orig - h
			lm := loss()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-g.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s grad [%d]: analytic %.8f vs numeric %.8f", p.Name, i, g.Data[i], num)
			}
		}
	}
}

func TestConv2DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	checkLayerGradients(t, NewConv2D("c", 2, 3, 3, 1, 1, rng), []int{2, 5, 5}, 1e-5)
}

func TestConv2DStridedGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	checkLayerGradients(t, NewConv2D("c", 1, 2, 3, 2, 0, rng), []int{1, 7, 7}, 1e-5)
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	checkLayerGradients(t, NewDense("d", 6, 4, rng), []int{6}, 1e-5)
}

func TestReLUGradients(t *testing.T) {
	// Random normal inputs are almost surely away from the kink at 0.
	checkLayerGradients(t, NewReLU("r"), []int{3, 4, 4}, 1e-5)
}

func TestSoftmaxGradients(t *testing.T) {
	checkLayerGradients(t, NewSoftmax("s"), []int{7}, 1e-5)
}

func TestMaxPoolGradients(t *testing.T) {
	checkLayerGradients(t, NewMaxPool2D("p", 2, 2), []int{2, 6, 6}, 1e-5)
}

func TestAvgPoolGradients(t *testing.T) {
	checkLayerGradients(t, NewAvgPool2D("p", 2, 2), []int{2, 6, 6}, 1e-5)
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	checkLayerGradients(t, NewGlobalAvgPool("g"), []int{3, 4, 4}, 1e-5)
}

func TestFlattenGradients(t *testing.T) {
	checkLayerGradients(t, NewFlatten("f"), []int{2, 3, 3}, 1e-7)
}

func TestBatchNormGradients(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	// Non-trivial running statistics exercise the full normalization.
	rng := rand.New(rand.NewSource(4))
	bn.RunMean.FillNormal(rng, 0, 1)
	bn.RunVar.FillUniform(rng, 0.5, 2)
	bn.Gamma.Value.FillNormal(rng, 1, 0.2)
	bn.Beta.Value.FillNormal(rng, 0, 0.2)
	checkLayerGradients(t, bn, []int{3, 4, 4}, 1e-5)
}

func TestSeqGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewSeq("s",
		NewConv2D("c", 1, 2, 3, 1, 1, rng),
		NewReLU("r"),
		NewMaxPool2D("p", 2, 2),
		NewFlatten("f"),
		NewDense("d", 2*3*3, 4, rng),
	)
	checkLayerGradients(t, l, []int{1, 6, 6}, 1e-5)
}

func TestDenseBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	b := NewDenseBlock("b", 2, 2, 3, rng)
	// Give the inner batch norms non-trivial statistics.
	for _, n := range b.Norms {
		n.RunMean.FillNormal(rng, 0, 0.5)
		n.RunVar.FillUniform(rng, 0.5, 2)
	}
	checkLayerGradients(t, b, []int{2, 5, 5}, 1e-5)
}

func TestTransitionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checkLayerGradients(t, NewTransition("t", 4, 2, rng), []int{4, 6, 6}, 1e-5)
}

func TestNetworkInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net, err := NewSevenLayerCNN("m", 1, 8, 3, ArchConfig{Width: 2, FCWidth: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8).FillUniform(rng, 0, 1)
	label := 1
	g := net.InputGradient(x, label)

	const h = 1e-5
	loss := func() float64 {
		p := net.Forward(x)
		l, _ := CrossEntropy(p, label)
		return l
	}
	// Spot-check a sample of pixels; full coverage is too slow here and
	// the per-layer checks above cover each operator exhaustively.
	for _, i := range []int{0, 7, 13, 31, 40, 63} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss()
		x.Data[i] = orig - h
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-g.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("network input grad [%d]: analytic %.8f vs numeric %.8f", i, g.Data[i], num)
		}
	}
}

func TestSoftmaxCrossEntropyGradientIsPMinusOneHot(t *testing.T) {
	// The composition softmax → cross-entropy must produce the logit
	// gradient p - onehot(y); this is the identity the trainer depends
	// on for stability.
	rng := rand.New(rand.NewSource(9))
	logits := tensor.New(5).FillNormal(rng, 0, 2)
	sm := NewSoftmax("s")
	ctx := NewContext(false, nil)
	probs := sm.Forward(logits, ctx)
	_, gradProbs := CrossEntropy(probs, 2)
	gradLogits := sm.Backward(gradProbs, ctx)
	for i := 0; i < 5; i++ {
		want := probs.Data[i]
		if i == 2 {
			want -= 1
		}
		if math.Abs(gradLogits.Data[i]-want) > 1e-9 {
			t.Fatalf("logit grad [%d] = %.9f, want %.9f", i, gradLogits.Data[i], want)
		}
	}
}

func TestLogitGradientNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net, err := NewSevenLayerCNN("m", 1, 8, 3, ArchConfig{Width: 2, FCWidth: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8).FillUniform(rng, 0, 1)
	u := tensor.New(3).FillNormal(rng, 0, 1)

	ctx := NewContext(false, nil)
	net.ForwardToLogits(x, ctx)
	g := net.BackwardFromLogits(u.Clone(), ctx)

	loss := func() float64 { return net.Logits(x).Dot(u) }
	const h = 1e-5
	for _, i := range []int{0, 9, 17, 33, 63} {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss()
		x.Data[i] = orig - h
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-g.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("logit grad [%d]: analytic %.8f vs numeric %.8f", i, g.Data[i], num)
		}
	}
}

func TestLogitsForwardBackwardConsistency(t *testing.T) {
	// ForwardToLogits followed by an explicit softmax must match
	// Forward exactly.
	rng := rand.New(rand.NewSource(11))
	net, err := NewSevenLayerCNN("m", 1, 8, 3, ArchConfig{Width: 2, FCWidth: 8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8).FillUniform(rng, 0, 1)
	z := net.ForwardToLogits(x, NewContext(false, nil))
	if !SoftmaxVector(z).AllClose(net.Forward(x), 1e-12) {
		t.Fatal("softmax(ForwardToLogits) != Forward")
	}
}
