package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"deepvalidation/internal/opt"
	"deepvalidation/internal/tensor"
)

// pinProblem draws n labelled (c,size,size) images: a uniform
// background plus a bright horizontal band whose row depends on the
// class, so every architecture below learns something in two epochs.
func pinProblem(rng *rand.Rand, n, c, size, classes int) ([]*tensor.Tensor, []int) {
	xs := make([]*tensor.Tensor, n)
	ys := make([]int, n)
	band := size / classes
	for i := range xs {
		k := rng.Intn(classes)
		img := tensor.New(c, size, size).FillUniform(rng, 0, 0.3)
		for ch := 0; ch < c; ch++ {
			for y := k * band; y < (k+1)*band; y++ {
				for x := 0; x < size; x++ {
					img.Set(0.7+0.3*rng.Float64(), ch, y, x)
				}
			}
		}
		xs[i], ys[i] = img, k
	}
	return xs, ys
}

// paramHash is the FNV-64a hash of the Float64bits of every parameter
// value, in Params order.
func paramHash(net *Network) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range net.Params() {
		for _, v := range p.Value.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainedParamsPinned pins the bits of the two trained reference
// architectures after two Adadelta epochs at batch 16: the seven-layer
// CNN (conv, ReLU, max pool, dense) and the DenseNet (dense blocks,
// BatchNorm refreshed by CalibrateWith, a strided stem, average and
// global pools). The hashes were recorded with Workers=1 before
// training moved onto arena forward passes; every worker count must
// reproduce them, because the trainer folds per-sample gradients in
// sample order. The bits come from linux/amd64 (like the escape and
// golden corpora); other platforms may round fused operations
// differently, so the test skips there.
func TestTrainedParamsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("trained-parameter hashes are recorded on amd64")
	}
	cases := []struct {
		name      string
		build     func(rng *rand.Rand) (*Network, error)
		c, size   int
		calibrate bool
		want      string
	}{
		{"seven-layer", func(rng *rand.Rand) (*Network, error) {
			return NewSevenLayerCNN("pin7", 1, 12, 3, ArchConfig{Width: 3, FCWidth: 16}, rng)
		}, 1, 12, false, "06f5e7a0076d55c5"},
		{"densenet", func(rng *rand.Rand) (*Network, error) {
			return NewDenseNetLite("pindn", 3, 12, 3, ArchConfig{Growth: 3, BlockConvs: 2, StemStride: 2}, rng)
		}, 3, 12, true, "4a703949c5a8f888"},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(31))
				net, err := tc.build(rng)
				if err != nil {
					t.Fatal(err)
				}
				xs, ys := pinProblem(rng, 40, tc.c, tc.size, 3)
				tr := NewTrainer(net, opt.NewAdadelta(1.0, 0.95), rand.New(rand.NewSource(32)))
				tr.BatchSize = 16
				tr.Workers = workers
				if tc.calibrate {
					tr.CalibrateWith = xs[:8]
				}
				if _, err := tr.Train(xs, ys, 2); err != nil {
					t.Fatal(err)
				}
				if got := paramHash(net); got != tc.want {
					t.Errorf("trained parameter hash %s, want %s", got, tc.want)
				}
			})
		}
	}
}
