package nn

import (
	"fmt"
	"math/rand"

	"deepvalidation/internal/tensor"
)

// Dense is a fully connected layer over flat inputs: y = Wx + b.
type Dense struct {
	LayerName string
	In, Out   int
	Weight    *Param // (Out, In)
	Bias      *Param // (Out)
}

// NewDense constructs a fully connected layer with Glorot-initialized
// weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(out, in).FillGlorot(rng, in, out)
	b := tensor.New(out)
	return &Dense{
		LayerName: name,
		In:        in, Out: out,
		Weight: &Param{Name: name + ".weight", Value: w},
		Bias:   &Param{Name: name + ".bias", Value: b},
	}
}

// Name implements Layer.
func (l *Dense) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Dense) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Layer.
func (l *Dense) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	if n != l.In {
		panic(fmt.Sprintf("nn: %s expects %d inputs, got shape %v", l.LayerName, l.In, in))
	}
	return []int{l.Out}
}

// Forward implements Layer, recording the input for Backward.
func (l *Dense) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer.
func (l *Dense) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	x := ctx.cached(l)

	// dW[o][i] = grad[o] * x[i]; db = grad; dX = Wᵀ grad.
	dW := tensor.New(l.Out, l.In)
	for o := 0; o < l.Out; o++ {
		g := grad.Data[o]
		if g == 0 {
			continue
		}
		row := dW.Data[o*l.In : (o+1)*l.In]
		for i, xi := range x.Data {
			row[i] = g * xi
		}
	}
	ctx.AddGrad(l.Weight, dW)
	ctx.AddGrad(l.Bias, grad.Reshape(l.Out))

	dX := tensor.New(l.In)
	for o := 0; o < l.Out; o++ {
		g := grad.Data[o]
		if g == 0 {
			continue
		}
		row := l.Weight.Value.Data[o*l.In : (o+1)*l.In]
		for i, w := range row {
			dX.Data[i] += float64(g * w)
		}
	}
	return dX
}
