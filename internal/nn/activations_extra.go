package nn

import "deepvalidation/internal/tensor"

// Sigmoid applies 1/(1+e^{−x}) elementwise. The reference
// architectures use ReLU, but custom models assembled from this
// package may prefer saturating activations.
type Sigmoid struct {
	LayerName string
}

// NewSigmoid constructs a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{LayerName: name} }

// Name implements Layer.
func (l *Sigmoid) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Sigmoid) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Sigmoid) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer, recording the output for Backward.
func (l *Sigmoid) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	out := l.ForwardInfer(x, ctx.sc)
	return ctx.record(l, out, out)
}

// Backward implements Layer.
func (l *Sigmoid) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	y := ctx.cached(l)
	out := grad.Clone()
	for i, g := range out.Data {
		out.Data[i] = g * y.Data[i] * (1 - y.Data[i])
	}
	return out
}

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	LayerName string
}

// NewTanh constructs a tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{LayerName: name} }

// Name implements Layer.
func (l *Tanh) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Tanh) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer, recording the output for Backward.
func (l *Tanh) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	out := l.ForwardInfer(x, ctx.sc)
	return ctx.record(l, out, out)
}

// Backward implements Layer.
func (l *Tanh) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	y := ctx.cached(l)
	out := grad.Clone()
	for i, g := range out.Data {
		out.Data[i] = g * (1 - y.Data[i]*y.Data[i])
	}
	return out
}

// LeakyReLU applies max(x, αx) elementwise, avoiding dead units in
// very narrow models.
type LeakyReLU struct {
	LayerName string
	Alpha     float64
}

// NewLeakyReLU constructs a leaky ReLU with slope alpha on the negative
// side.
func NewLeakyReLU(name string, alpha float64) *LeakyReLU {
	return &LeakyReLU{LayerName: name, Alpha: alpha}
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return l.LayerName }

// Params implements Layer.
func (l *LeakyReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *LeakyReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer, recording the input for Backward.
func (l *LeakyReLU) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	x := ctx.cached(l)
	out := grad.Clone()
	for i, v := range x.Data {
		if !(v > 0) {
			out.Data[i] *= l.Alpha
		}
	}
	return out
}
