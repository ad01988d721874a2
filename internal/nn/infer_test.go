package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"deepvalidation/internal/tensor"
)

// allLayerNet builds a network that routes through every inference-path
// specialization: a stride-1 conv (direct-convolution path), a stride-2
// conv (im2col fallback), a 2×2/2 max pool on even dims (unrolled fast
// path), max and avg pools hitting the generic loops, BatchNorm,
// DenseBlock, Seq nesting, both activations, Dropout, Flatten, Dense,
// and Softmax.
func allLayerNet(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2024))
	net, err := NewNetwork("all-layers", []int{2, 13, 13}, 4,
		NewConv2D("conv_s1", 2, 4, 3, 1, 1, rng), // 4×13×13, direct path
		NewBatchNorm("bn1", 4),
		NewReLU("relu1"),
		NewConv2D("conv_s2", 4, 6, 3, 2, 1, rng), // 6×7×7, im2col path
		NewSeq("block",
			NewConv2D("conv_k1", 6, 6, 1, 1, 0, rng), // 1×1 kernel, direct
			NewReLU("relu_block"),
		),
		NewMaxPool2D("pool_odd", 2, 2), // 7×7 odd input → generic pool
		NewDenseBlock("dense_block", 6, 4, 2, rng),
		NewConv2D("conv_pad0", 14, 8, 3, 1, 0, rng), // pad 0, direct → 8×1×1... careful
		NewFlatten("flatten"),
		NewDropout("dropout", 0.5),
		NewDense("fc", 8, 4, rng),
		NewSoftmax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// evenPoolNet exercises the 2×2 stride-2 max-pool fast path on even
// spatial dims plus AvgPool and GlobalAvgPool inference paths.
func evenPoolNet(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2025))
	net, err := NewNetwork("pools", []int{1, 12, 12}, 3,
		NewConv2D("conv", 1, 5, 3, 1, 1, rng), // 5×12×12
		NewMaxPool2D("maxpool_even", 2, 2),    // even dims → fast path
		NewAvgPool2D("avgpool", 2, 2),         // 5×3×3
		NewGlobalAvgPool("gap"),               // 5
		NewDense("fc", 5, 3, rng),
		NewSoftmax("softmax"),
	)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// refForward is the test-only scalar reference for one layer's
// inference-mode forward pass: the plain definition of each layer's
// arithmetic on freshly allocated tensors (im2col plus a matrix
// multiply for every convolution, generic window loops for every pool,
// a concatenation per dense-block step). Every ForwardInfer must
// reproduce it bit for bit, which keeps the arena kernels (the direct
// stride-1 convolution, the unrolled 2×2 pool, the in-place dense-block
// concatenation) checked against an independent implementation.
func refForward(l Layer, x *tensor.Tensor) *tensor.Tensor {
	switch l := l.(type) {
	case *Seq:
		for _, c := range l.Children {
			x = refForward(c, x)
		}
		return x
	case *Conv2D:
		outShape := l.OutShape(x.Shape)
		out := tensor.MatMul(l.Weight.Value, tensor.Im2Col(x, l.KH, l.KW, l.Stride, l.Pad))
		area := outShape[1] * outShape[2]
		for f := 0; f < l.OutC; f++ {
			b := l.Bias.Value.Data[f]
			row := out.Data[f*area : (f+1)*area]
			for i := range row {
				row[i] += b
			}
		}
		return out.Reshape(outShape...)
	case *MaxPool2D:
		return refPool(x, l.K, l.Stride, func(win []float64) float64 {
			best := win[0]
			for _, v := range win[1:] {
				if v > best {
					best = v
				}
			}
			return best
		})
	case *AvgPool2D:
		inv := 1.0 / float64(l.K*l.K)
		return refPool(x, l.K, l.Stride, func(win []float64) float64 {
			s := 0.0
			for _, v := range win {
				s += v
			}
			return s * inv
		})
	case *GlobalAvgPool:
		c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
		out := tensor.New(c)
		inv := 1.0 / float64(h*w)
		for ch := 0; ch < c; ch++ {
			s := 0.0
			for _, v := range x.Data[ch*h*w : (ch+1)*h*w] {
				s += v
			}
			out.Data[ch] = s * inv
		}
		return out
	case *Dense:
		out := tensor.MatVec(l.Weight.Value, x.Reshape(l.In))
		out.AddInPlace(l.Bias.Value)
		return out
	case *ReLU:
		return x.Map(func(v float64) float64 {
			if v > 0 {
				return v
			}
			return 0
		})
	case *Softmax:
		return SoftmaxVector(x)
	case *Flatten:
		return x.Reshape(x.Len())
	case *Dropout:
		return x
	case *BatchNorm:
		area := x.Shape[1] * x.Shape[2]
		out := tensor.New(x.Shape...)
		for ch := 0; ch < l.C; ch++ {
			mean := l.RunMean.Data[ch]
			invStd := 1 / math.Sqrt(l.RunVar.Data[ch]+l.Eps)
			g, b := l.Gamma.Value.Data[ch], l.Beta.Value.Data[ch]
			for i := ch * area; i < (ch+1)*area; i++ {
				out.Data[i] = g*((x.Data[i]-mean)*invStd) + b
			}
		}
		return out
	case *DenseBlock:
		cat := x
		for i := range l.Convs {
			h := refForward(l.Norms[i], cat)
			h = refForward(&ReLU{}, h)
			out := refForward(l.Convs[i], h)
			next := tensor.New(cat.Shape[0]+out.Shape[0], cat.Shape[1], cat.Shape[2])
			copy(next.Data, cat.Data)
			copy(next.Data[cat.Len():], out.Data)
			cat = next
		}
		return cat
	}
	panic(fmt.Sprintf("refForward: no reference for %T", l))
}

// refPool applies reduce to every k×k window (clipped at the border) of
// each channel, visiting window elements in (ky,kx) order.
func refPool(x *tensor.Tensor, k, stride int, reduce func([]float64) float64) *tensor.Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := tensor.ConvOutSize(h, k, stride, 0)
	ow := tensor.ConvOutSize(w, k, stride, 0)
	out := tensor.New(c, oh, ow)
	win := make([]float64, 0, k*k)
	oi := 0
	for ch := 0; ch < c; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				win = win[:0]
				for ky := 0; ky < k && oy*stride+ky < h; ky++ {
					for kx := 0; kx < k && ox*stride+kx < w; kx++ {
						win = append(win, x.Data[ch*h*w+(oy*stride+ky)*w+ox*stride+kx])
					}
				}
				out.Data[oi] = reduce(win)
				oi++
			}
		}
	}
	return out
}

// refForwardTapped runs refForward through every layer of n, returning
// the probabilities and each layer's output.
func refForwardTapped(n *Network, x *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	taps := make([]*tensor.Tensor, 0, len(n.Layers))
	for _, l := range n.Layers {
		x = refForward(l, x)
		taps = append(taps, x)
	}
	return x, taps
}

// SoftmaxVector is the reference softmax: numerically stable (the
// maximum is subtracted before exponentiating), on a fresh tensor.
func SoftmaxVector(x *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(x.Len())
	m := x.Max()
	sum := 0.0
	for i, v := range x.Data {
		e := math.Exp(v - m)
		out.Data[i] = e
		sum += e
	}
	for i := range out.Data {
		out.Data[i] /= sum
	}
	return out
}

func randImage(rng *rand.Rand, shape []int) *tensor.Tensor {
	x := tensor.New(shape...)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

func assertTensorBits(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", name, got.Shape, want.Shape)
	}
	for i := range want.Data {
		g, w := got.Data[i], want.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: [%d] got %x want %x", name, i, math.Float64bits(g), math.Float64bits(w))
		}
	}
}

// TestForwardTappedScratchBitEquivalent is the nn-side differential
// battery: the scratch-arena inference pass must reproduce the scalar
// reference bit-for-bit — probabilities and every tap — across
// repeated passes on the same warm arena (so buffer reuse can never
// leak stale data) and across every layer specialization. The
// Context-driven pass training and input gradients use (ForwardCtx on
// one reused Context) must match it too.
func TestForwardTappedScratchBitEquivalent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"all-layers", allLayerNet(t)},
		{"pools", evenPoolNet(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScratch()
			ctx := NewContext(false, nil)
			for pass := 0; pass < 3; pass++ {
				x := randImage(rng, tc.net.InShape)
				wantProbs, wantTaps := refForwardTapped(tc.net, x)
				gotProbs, gotTaps := tc.net.ForwardTappedScratch(x, sc)
				assertTensorBits(t, "probs", gotProbs, wantProbs)
				ctx.ResetCache()
				assertTensorBits(t, "ForwardCtx probs", tc.net.ForwardCtx(x, ctx), wantProbs)
				if len(gotTaps) != len(wantTaps) {
					t.Fatalf("pass %d: %d taps, want %d", pass, len(gotTaps), len(wantTaps))
				}
				for i := range wantTaps {
					assertTensorBits(t, tc.net.Layers[i].Name(), gotTaps[i], wantTaps[i])
				}
			}
		})
	}
}

// TestForwardTappedScratchSpecialInputs runs the equivalence check with
// NaN/±Inf/−0 pixels: the direct-convolution, pooling and ReLU fast
// paths must propagate non-finite activations exactly like the
// reference pass.
func TestForwardTappedScratchSpecialInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, net := range []*Network{evenPoolNet(t), allLayerNet(t)} {
		testSpecialInputs(t, rng, net, specials)
	}
}

func testSpecialInputs(t *testing.T, rng *rand.Rand, net *Network, specials []float64) {
	t.Helper()
	sc := NewScratch()
	for pass := 0; pass < 4; pass++ {
		x := randImage(rng, net.InShape)
		for k := 0; k < 8; k++ {
			x.Data[rng.Intn(len(x.Data))] = specials[rng.Intn(len(specials))]
		}
		wantProbs, wantTaps := refForwardTapped(net, x)
		gotProbs, gotTaps := net.ForwardTappedScratch(x, sc)
		assertTensorBits(t, "probs", gotProbs, wantProbs)
		for i := range wantTaps {
			assertTensorBits(t, net.Layers[i].Name(), gotTaps[i], wantTaps[i])
		}
	}
}

// TestForwardTappedScratchSteadyStateAllocs is the arena's allocation
// budget: after one warm-up pass, a tapped scratch forward allocates
// nothing at all.
func TestForwardTappedScratchSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("race-detector instrumentation allocates; budgets apply to plain builds")
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"all-layers", allLayerNet(t)},
		{"pools", evenPoolNet(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := NewScratch()
			x := randImage(rng, tc.net.InShape)
			tc.net.ForwardTappedScratch(x, sc) // warm the arena
			if n := testing.AllocsPerRun(20, func() {
				tc.net.ForwardTappedScratch(x, sc)
			}); n != 0 {
				t.Errorf("warm scratch pass allocates %.1f/op, want 0", n)
			}
		})
	}
}

// TestScratchServesTwoNetworks pins the (layer, slot) keying: one arena
// alternating between two networks must keep their buffers apart and
// stay bit-equivalent to the reference on both.
func TestScratchServesTwoNetworks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	netA := allLayerNet(t)
	netB := evenPoolNet(t)
	sc := NewScratch()
	for pass := 0; pass < 2; pass++ {
		xa := randImage(rng, netA.InShape)
		xb := randImage(rng, netB.InShape)
		wantA, _ := refForwardTapped(netA, xa)
		gotA, _ := netA.ForwardTappedScratch(xa, sc)
		assertTensorBits(t, "netA probs", gotA, wantA)
		wantB, _ := refForwardTapped(netB, xb)
		gotB, _ := netB.ForwardTappedScratch(xb, sc)
		assertTensorBits(t, "netB probs", gotB, wantB)
		// netA's results were computed before netB ran on the same
		// arena; recompute to confirm nothing was clobbered in a way
		// that survives to the next pass.
		gotA2, _ := netA.ForwardTappedScratch(xa, sc)
		assertTensorBits(t, "netA probs after netB", gotA2, wantA)
	}
}
