package nn

import (
	"math"
	"math/rand"
	"testing"

	"deepvalidation/internal/tensor"
)

// allLayerNet builds a network that routes through every inference-path
// specialization: a stride-1 conv (direct-convolution path), a stride-2
// conv (im2col fallback), a 2×2/2 max pool on even dims (unrolled fast
// path), max and avg pools hitting the generic loops, BatchNorm,
// DenseBlock, Seq nesting, every activation, Dropout, Flatten, Dense,
// and Softmax.
func allLayerNet(t *testing.T) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(2024))
	net, err := NewNetwork("all-layers", []int{2, 13, 13}, 4,
		NewConv2D("conv_s1", 2, 4, 3, 1, 1, rng), // 4×13×13, direct path
		NewBatchNorm("bn1", 4),
		NewReLU("relu1"),
		NewConv2D("conv_s2", 4, 6, 3, 2, 1, rng), // 6×7×7, im2col path
		NewLeakyReLU("lrelu", 0.1),
		NewSeq("block",
			NewConv2D("conv_k1", 6, 6, 1, 1, 0, rng), // 1×1 kernel, direct
			NewTanh("tanh"),
		),
		NewMaxPool2D("pool_odd", 2, 2), // 7×7 odd input → generic pool
		NewDenseBlock("dense_block", 6, 4, 2, rng),
		NewConv2D("conv_pad0", 14, 8, 3, 1, 0, rng), // pad 0, direct → 8×1×1... careful
		NewSigmoid("sigmoid"),
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
// battery: the scratch-arena inference pass must reproduce the
// allocating ForwardTapped bit-for-bit — probabilities and every tap —
// across repeated passes on the same warm arena (so buffer reuse can
// never leak stale data) and across every layer specialization.
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
			for pass := 0; pass < 3; pass++ {
				x := randImage(rng, tc.net.InShape)
				wantProbs, wantTaps := tc.net.ForwardTapped(x)
				gotProbs, gotTaps := tc.net.ForwardTappedScratch(x, sc)
				assertTensorBits(t, "probs", gotProbs, wantProbs)
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
// NaN/±Inf pixels: the direct-convolution and pooling fast paths must
// propagate non-finite activations exactly like the reference pass.
func TestForwardTappedScratchSpecialInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	net := evenPoolNet(t)
	sc := NewScratch()
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for pass := 0; pass < 4; pass++ {
		x := randImage(rng, net.InShape)
		for k := 0; k < 8; k++ {
			x.Data[rng.Intn(len(x.Data))] = specials[rng.Intn(len(specials))]
		}
		wantProbs, wantTaps := net.ForwardTapped(x)
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
		wantA, _ := netA.ForwardTapped(xa)
		gotA, _ := netA.ForwardTappedScratch(xa, sc)
		assertTensorBits(t, "netA probs", gotA, wantA)
		wantB, _ := netB.ForwardTapped(xb)
		gotB, _ := netB.ForwardTappedScratch(xb, sc)
		assertTensorBits(t, "netB probs", gotB, wantB)
		// netA's results were computed before netB ran on the same
		// arena; recompute to confirm nothing was clobbered in a way
		// that survives to the next pass.
		gotA2, _ := netA.ForwardTappedScratch(xa, sc)
		assertTensorBits(t, "netA probs after netB", gotA2, wantA)
	}
}
