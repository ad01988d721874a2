package nn

import (
	"fmt"

	"deepvalidation/internal/tensor"
)

// Flatten reshapes a (C,H,W) activation to a flat vector so dense layers
// can follow convolutional ones.
type Flatten struct {
	LayerName string
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{LayerName: name} }

// Name implements Layer.
func (l *Flatten) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Flatten) OutShape(in []int) []int {
	n := 1
	for _, d := range in {
		n *= d
	}
	return []int{n}
}

// Forward implements Layer, recording the input for Backward.
func (l *Flatten) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer.
func (l *Flatten) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return grad.Reshape(ctx.cached(l).Shape...)
}

// Dropout zeroes a random fraction Rate of activations during training
// and scales survivors by 1/(1-Rate) (inverted dropout), so inference
// needs no rescaling. In inference contexts it is the identity.
type Dropout struct {
	LayerName string
	Rate      float64
}

// NewDropout constructs a dropout layer; rate must be in [0, 1).
func NewDropout(name string, rate float64) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v outside [0,1)", rate))
	}
	return &Dropout{LayerName: name, Rate: rate}
}

// Name implements Layer.
func (l *Dropout) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *Dropout) OutShape(in []int) []int { return append([]int(nil), in...) }

// Forward implements Layer. Outside training (or at rate 0) it is
// ForwardInfer, the identity. In training it keeps each activation with
// probability 1-Rate, drawing one ctx.Rand() value per element in
// order, and scales survivors by 1/(1-Rate); the mask and the output
// live in the context's arena, and the mask is recorded for Backward.
func (l *Dropout) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if !ctx.Training() || l.Rate == 0 {
		return ctx.record(l, nil, l.ForwardInfer(x, ctx.sc))
	}
	rng := ctx.Rand()
	if rng == nil {
		panic("nn: " + l.LayerName + ": training context has no random source")
	}
	keep := 1 - l.Rate
	scale := 1 / keep
	mask := ctx.sc.like(skey{l, 0}, x)
	out := ctx.sc.like(skey{l, 1}, x)
	for i, v := range x.Data {
		if rng.Float64() < keep {
			mask.Data[i] = scale
			out.Data[i] = v * scale
		} else {
			mask.Data[i] = 0
			out.Data[i] = 0
		}
	}
	return ctx.record(l, mask, out)
}

// Backward implements Layer.
func (l *Dropout) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	mask := ctx.cached(l)
	if mask == nil {
		return grad
	}
	out := grad.Clone()
	for i, m := range mask.Data {
		out.Data[i] *= m
	}
	return out
}
