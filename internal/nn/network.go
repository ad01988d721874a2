package nn

import (
	"fmt"

	"deepvalidation/internal/freelist"
	"deepvalidation/internal/metrics"
	"deepvalidation/internal/tensor"
)

// Network is a feed-forward classifier: a stack of layers whose final
// layer produces a probability vector (paper Eq. 1,
// f(x) = f_L(f_{L-1}(... f_1(x)))). Layer boundaries are the validation
// tap points used by Deep Validation.
type Network struct {
	ModelName string
	InShape   []int
	Classes   int
	Layers    []Layer

	// scratch holds the forward arenas GetScratch hands out. Unexported,
	// so gob skips it; a decoded network starts with an empty list.
	scratch freelist.List[*Scratch]
}

// NewNetwork assembles a network and verifies that the layer shapes
// chain correctly from the input shape to a Classes-long output.
func NewNetwork(name string, inShape []int, classes int, layers ...Layer) (*Network, error) {
	n := &Network{ModelName: name, InShape: append([]int(nil), inShape...), Classes: classes, Layers: layers}
	shape := inShape
	for _, l := range layers {
		func() {
			defer func() {
				if r := recover(); r != nil {
					panic(fmt.Sprintf("nn: layer %q rejects input %v: %v", l.Name(), shape, r))
				}
			}()
			shape = l.OutShape(shape)
		}()
	}
	if len(shape) != 1 || shape[0] != classes {
		return nil, fmt.Errorf("nn: network %q produces shape %v, want [%d]", name, shape, classes)
	}
	seen := make(map[string]bool, len(layers))
	for _, l := range layers {
		if seen[l.Name()] {
			return nil, fmt.Errorf("nn: duplicate layer name %q in network %q", l.Name(), name)
		}
		seen[l.Name()] = true
	}
	return n, nil
}

// NumLayers returns the number of tap-level layers (the paper's L).
func (n *Network) NumLayers() int { return len(n.Layers) }

// Params returns all learnable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters.
func (n *Network) ParamCount() int {
	c := 0
	for _, p := range n.Params() {
		c += p.Value.Len()
	}
	return c
}

// ForwardCtx runs one sample through the network within ctx, returning
// the output probability vector. The result aliases ctx's arena (see
// Context).
func (n *Network) ForwardCtx(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, ctx)
	}
	return x
}

// GetScratch takes a forward arena from the network's free list, or
// builds one when the list is empty. The caller owns it until it hands
// it back with PutScratch.
func (n *Network) GetScratch() *Scratch {
	if sc, ok := n.scratch.Get(); ok {
		return sc
	}
	return NewScratch()
}

// PutScratch hands back an arena once nothing reads the outputs of its
// passes any more. The list keeps at most 2 × GOMAXPROCS arenas and
// drops the rest for the GC, so a network holds only as many as were
// in use at once.
func (n *Network) PutScratch(sc *Scratch) { n.scratch.Put(sc) }

// Forward runs one sample through the network in inference mode on an
// arena from the network's list and returns a copy of the
// probabilities, which belongs to the caller.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	sc := n.GetScratch()
	defer n.PutScratch(sc)
	probs, _ := n.ForwardTappedScratch(x, sc)
	return probs.Clone()
}

// ForwardTapped is ForwardTappedScratch on a fresh arena: the
// probabilities and taps belong to the caller. Hot paths keep an arena
// and call ForwardTappedScratch instead.
func (n *Network) ForwardTapped(x *tensor.Tensor) (probs *tensor.Tensor, taps []*tensor.Tensor) {
	return n.ForwardTappedScratch(x, NewScratch())
}

// TapShapes returns the output shape of every tap-level layer for an
// input of the given shape, without running any data through the
// network. Deep Validation uses it to size its feature reducers before
// fanning the tapped forward passes across workers.
func (n *Network) TapShapes(in []int) [][]int {
	shapes := make([][]int, 0, len(n.Layers))
	shape := in
	for _, l := range n.Layers {
		shape = l.OutShape(shape)
		shapes = append(shapes, shape)
	}
	return shapes
}

// Logits runs one sample and returns the pre-softmax activations,
// assuming the final layer is (or ends with) a softmax. The white-box
// attacks of Section IV-D5 need these.
func (n *Network) Logits(x *tensor.Tensor) *tensor.Tensor {
	return n.ForwardToLogits(x, NewContext(false, nil))
}

// preSoftmax splits the computation of the final tap layer into the
// units to run before the softmax. It returns nil when the last unit is
// not a softmax (the network then has no separate logit stage).
func (n *Network) preSoftmax() []Layer {
	last := n.Layers[len(n.Layers)-1]
	if seq, ok := last.(*Seq); ok {
		if len(seq.Children) > 0 {
			if _, isSM := seq.Children[len(seq.Children)-1].(*Softmax); isSM {
				return seq.Children[:len(seq.Children)-1]
			}
		}
		return nil
	}
	if _, isSM := last.(*Softmax); isSM {
		return []Layer{}
	}
	return nil
}

// ForwardToLogits runs one sample up to (but excluding) the final
// softmax within ctx, returning the logits z (paper Section II-A). A
// later BackwardFromLogits with the same ctx propagates a logit
// gradient back to the input. It panics if the network does not end in
// a softmax, which is a programmer error for the classifiers here.
func (n *Network) ForwardToLogits(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	pre := n.preSoftmax()
	if pre == nil {
		panic(fmt.Sprintf("nn: network %q does not end in a softmax layer", n.ModelName))
	}
	for _, l := range n.Layers[:len(n.Layers)-1] {
		x = l.Forward(x, ctx)
	}
	for _, l := range pre {
		x = l.Forward(x, ctx)
	}
	return x
}

// BackwardFromLogits propagates grad (with respect to the logits) back
// to the input; ForwardToLogits must have been called with the same
// ctx.
func (n *Network) BackwardFromLogits(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	pre := n.preSoftmax()
	if pre == nil {
		panic(fmt.Sprintf("nn: network %q does not end in a softmax layer", n.ModelName))
	}
	for i := len(pre) - 1; i >= 0; i-- {
		grad = pre[i].Backward(grad, ctx)
	}
	for i := len(n.Layers) - 2; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad, ctx)
	}
	return grad
}

// Predict returns the predicted class label and its confidence for one
// sample.
func (n *Network) Predict(x *tensor.Tensor) (label int, confidence float64) {
	sc := n.GetScratch()
	defer n.PutScratch(sc)
	p, _ := n.ForwardTappedScratch(x, sc)
	label = p.ArgMax()
	return label, p.Data[label]
}

// Backward propagates grad (with respect to the network output) back to
// the input, accumulating parameter gradients into ctx. ForwardCtx must
// have been called with the same ctx first.
func (n *Network) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad, ctx)
	}
	return grad
}

// InputGradient returns the gradient of the cross-entropy loss at the
// given label with respect to the input — the core primitive behind
// FGSM/BIM/JSMA.
func (n *Network) InputGradient(x *tensor.Tensor, label int) *tensor.Tensor {
	ctx := NewContext(false, nil)
	probs := n.ForwardCtx(x, ctx)
	_, grad := CrossEntropy(probs, label)
	return n.Backward(grad, ctx)
}

// Calibrate refreshes the running statistics of any BatchNorm layers by
// streaming the given samples through the network single-threaded, on
// one calibration Context and so one arena. It leaves networks without
// such layers unchanged.
func (n *Network) Calibrate(xs []*tensor.Tensor) {
	ctx := NewCalibrationContext()
	for _, x := range xs {
		n.ForwardCtx(x, ctx)
		ctx.ResetCache()
	}
}

// Accuracy evaluates top-1 accuracy and mean top-1 confidence over a
// labelled set, exactly the two columns of paper Table III.
func (n *Network) Accuracy(xs []*tensor.Tensor, ys []int) (accuracy, meanConfidence float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	correct := 0
	confSum := 0.0
	for i, x := range xs {
		label, conf := n.Predict(x)
		if label == ys[i] {
			correct++
		}
		confSum += conf
	}
	return float64(correct) / float64(len(xs)), confSum / float64(len(xs))
}

// Confusion builds the multi-class confusion matrix of the network over
// a labelled set.
func (n *Network) Confusion(xs []*tensor.Tensor, ys []int) *metrics.ClassConfusion {
	c := metrics.NewClassConfusion(n.Classes)
	for i, x := range xs {
		pred, _ := n.Predict(x)
		c.Add(ys[i], pred)
	}
	return c
}
