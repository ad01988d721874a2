package nn

import "deepvalidation/internal/tensor"

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	LayerName string
}

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (l *ReLU) Name() string { return l.LayerName }

// Params implements Layer.
func (l *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer, recording the input for Backward.
func (l *ReLU) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer.
func (l *ReLU) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return reluBackward(grad, ctx.cached(l))
}

// reluBackward passes grad where x > 0 and zeroes it elsewhere. x may be
// the ReLU's input or its output: both are positive at the same
// positions.
func reluBackward(grad, x *tensor.Tensor) *tensor.Tensor {
	out := grad.Clone()
	for i, v := range x.Data {
		if !(v > 0) {
			out.Data[i] = 0
		}
	}
	return out
}

// Softmax converts logits to a probability vector. It is the final layer
// of every classifier in this repository (paper Section II-A: "the last
// layer is a softmax layer").
type Softmax struct {
	LayerName string
}

// NewSoftmax constructs a softmax output layer.
func NewSoftmax(name string) *Softmax { return &Softmax{LayerName: name} }

// Name implements Layer.
func (l *Softmax) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Softmax) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Softmax) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer, recording the output for Backward.
func (l *Softmax) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	out := l.ForwardInfer(x, ctx.sc)
	return ctx.record(l, out, out)
}

// Backward implements Layer. It applies the full softmax Jacobian,
// dL/dz_i = y_i (g_i - Σ_j g_j y_j), so both the training loss and the
// attack objectives can backpropagate through probabilities.
func (l *Softmax) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	y := ctx.cached(l)
	dot := 0.0
	for i, g := range grad.Data {
		dot += float64(g * y.Data[i])
	}
	out := tensor.New(y.Len())
	for i := range out.Data {
		out.Data[i] = y.Data[i] * (grad.Data[i] - dot)
	}
	return out
}
