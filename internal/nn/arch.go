package nn

import (
	"fmt"
	"math/rand"
)

// ArchConfig sizes the reference architectures. The defaults mirror the
// paper's models scaled to CPU-trainable widths; absolute widths do not
// change which code paths run.
type ArchConfig struct {
	// Width is the base convolution filter count (paper: 32/64 per
	// Table II; default here 8/16).
	Width int
	// FCWidth is the fully connected hidden width (paper: 256/200;
	// default here 64).
	FCWidth int
	// Dropout is the dropout rate applied after the pooled conv stacks
	// and the first FC layer; 0 disables.
	Dropout float64
	// Growth is the DenseNet growth rate (paper: 12; default here 8).
	Growth int
	// BlockConvs is the number of convolutions per dense block
	// (paper: 12 for DenseNet-40; default here 4).
	BlockConvs int
	// StemStride strides the DenseNet stem convolution (default 1;
	// 2 quarters the spatial cost of every block, the CPU-scale
	// compromise for 32×32 inputs).
	StemStride int
}

// NewSevenLayerCNN builds the seven-layer CNN of paper Table II:
//
//	Conv+ReLU / Conv+ReLU+MaxPool / Conv+ReLU / Conv+ReLU+MaxPool /
//	FC+ReLU / FC+ReLU / FC+Softmax
//
// Each table row is one composite layer, so the network has exactly
// seven validation taps; Deep Validation probes the first six (the
// paper's "Single Validator" rows 1–6 for MNIST and SVHN).
func NewSevenLayerCNN(name string, inC, size, classes int, cfg ArchConfig, rng *rand.Rand) (*Network, error) {
	w := cfg.Width
	if w <= 0 {
		return nil, fmt.Errorf("nn: non-positive conv width %d", w)
	}
	fc := cfg.FCWidth
	if fc <= 0 {
		return nil, fmt.Errorf("nn: non-positive FC width %d", fc)
	}
	pooled := size / 2 / 2
	flat := 2 * w * pooled * pooled

	mk := func(n string, ls ...Layer) Layer { return NewSeq(n, ls...) }
	l2 := []Layer{
		NewConv2D("conv2", w, w, 3, 1, 1, rng),
		NewReLU("relu2"),
		NewMaxPool2D("pool2", 2, 2),
	}
	l4 := []Layer{
		NewConv2D("conv4", 2*w, 2*w, 3, 1, 1, rng),
		NewReLU("relu4"),
		NewMaxPool2D("pool4", 2, 2),
	}
	l5 := []Layer{
		NewFlatten("flatten"),
		NewDense("fc5", flat, fc, rng),
		NewReLU("relu5"),
	}
	if cfg.Dropout > 0 {
		l2 = append(l2, NewDropout("drop2", cfg.Dropout))
		l4 = append(l4, NewDropout("drop4", cfg.Dropout))
		l5 = append(l5, NewDropout("drop5", cfg.Dropout))
	}
	return NewNetwork(name, []int{inC, size, size}, classes,
		mk("layer1", NewConv2D("conv1", inC, w, 3, 1, 1, rng), NewReLU("relu1")),
		mk("layer2", l2...),
		mk("layer3", NewConv2D("conv3", w, 2*w, 3, 1, 1, rng), NewReLU("relu3")),
		mk("layer4", l4...),
		mk("layer5", l5...),
		mk("layer6", NewDense("fc6", fc, fc, rng), NewReLU("relu6")),
		mk("layer7", NewDense("fc7", fc, classes, rng), NewSoftmax("softmax")),
	)
}

// NewDenseNetLite builds a reduced DenseNet (Huang et al.) for the
// CIFAR-10-like dataset: a stem convolution, three dense blocks with
// transitions, and a BN+ReLU+global-average-pool head. Composite units
// are the validation taps, mirroring how the paper validates only the
// rear layers of its 40-layer DenseNet (Section IV-C).
func NewDenseNetLite(name string, inC, size, classes int, cfg ArchConfig, rng *rand.Rand) (*Network, error) {
	g := cfg.Growth
	if g <= 0 {
		return nil, fmt.Errorf("nn: non-positive growth rate %d", g)
	}
	nc := cfg.BlockConvs
	if nc <= 0 {
		return nil, fmt.Errorf("nn: non-positive block size %d", nc)
	}
	stride := cfg.StemStride
	if stride <= 0 {
		stride = 1
	}
	stemC := 2 * g
	b1 := NewDenseBlock("block1", stemC, g, nc, rng)
	t1C := b1.OutC() / 2
	b2 := NewDenseBlock("block2", t1C, g, nc, rng)
	t2C := b2.OutC() / 2
	b3 := NewDenseBlock("block3", t2C, g, nc, rng)
	headC := b3.OutC()

	return NewNetwork(name, []int{inC, size, size}, classes,
		NewSeq("stem", NewConv2D("stem.conv", inC, stemC, 3, stride, 1, rng)),
		b1,
		NewTransition("trans1", b1.OutC(), t1C, rng),
		b2,
		NewTransition("trans2", b2.OutC(), t2C, rng),
		b3,
		NewSeq("head",
			NewBatchNorm("head.bn", headC),
			NewReLU("head.relu"),
			NewGlobalAvgPool("head.gap"),
		),
		NewSeq("classifier",
			NewDense("head.fc", headC, classes, rng),
			NewSoftmax("softmax"),
		),
	)
}

// Ensure the concrete layers keep satisfying Layer; a build failure
// here beats a runtime surprise.
var (
	_ Layer = (*Conv2D)(nil)
	_ Layer = (*Dense)(nil)
	_ Layer = (*ReLU)(nil)
	_ Layer = (*Softmax)(nil)
	_ Layer = (*MaxPool2D)(nil)
	_ Layer = (*AvgPool2D)(nil)
	_ Layer = (*GlobalAvgPool)(nil)
	_ Layer = (*Flatten)(nil)
	_ Layer = (*Dropout)(nil)
	_ Layer = (*BatchNorm)(nil)
	_ Layer = (*Seq)(nil)
	_ Layer = (*DenseBlock)(nil)
)

// inputShapeElems is a small helper used by arch validation.
func inputShapeElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// CheckInputShape validates that an input of the given shape (its
// element count being the product of the dimensions) matches the
// network's declared input shape, returning a descriptive error for API
// misuse. It needs no tensor for the input.
func (n *Network) CheckInputShape(shape ...int) error {
	if inputShapeElems(shape) != inputShapeElems(n.InShape) {
		// The copy keeps shape from escaping, so callers' shapes stay on
		// their stacks.
		return fmt.Errorf("nn: network %q expects input shape %v (%d elements), got %v",
			n.ModelName, n.InShape, inputShapeElems(n.InShape), append([]int(nil), shape...))
	}
	return nil
}
