package nn

import (
	"fmt"

	"deepvalidation/internal/tensor"
)

// MaxPool2D downsamples each channel by taking the maximum over
// non-overlapping (or strided) windows.
type MaxPool2D struct {
	LayerName string
	K, Stride int
}

// NewMaxPool2D constructs a max-pooling layer with a k×k window.
func NewMaxPool2D(name string, k, stride int) *MaxPool2D {
	return &MaxPool2D{LayerName: name, K: k, Stride: stride}
}

// Name implements Layer.
func (l *MaxPool2D) Name() string { return l.LayerName }

// Params implements Layer.
func (l *MaxPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *MaxPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects (C,H,W) input, got %v", l.LayerName, in))
	}
	return []int{
		in[0],
		tensor.ConvOutSize(in[1], l.K, l.Stride, 0),
		tensor.ConvOutSize(in[2], l.K, l.Stride, 0),
	}
}

// Forward implements Layer, recording the input for Backward.
func (l *MaxPool2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer. It rescans each window of the recorded
// input for the element ForwardInfer chose (the first maximum in
// (ky,kx) order) and routes the gradient there.
func (l *MaxPool2D) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	x := ctx.cached(l)
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := tensor.ConvOutSize(h, l.K, l.Stride, 0)
	ow := tensor.ConvOutSize(w, l.K, l.Stride, 0)
	dX := tensor.New(x.Shape...)
	oi := 0
	for ch := 0; ch < c; ch++ {
		plane := x.Data[ch*h*w : (ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := -1
				bestV := 0.0
				for ky := 0; ky < l.K; ky++ {
					iy := oy*l.Stride + ky
					if iy >= h {
						break
					}
					for kx := 0; kx < l.K; kx++ {
						ix := ox*l.Stride + kx
						if ix >= w {
							break
						}
						idx := iy*w + ix
						if best < 0 || plane[idx] > bestV {
							best, bestV = idx, plane[idx]
						}
					}
				}
				dX.Data[ch*h*w+best] += grad.Data[oi]
				oi++
			}
		}
	}
	return dX
}

// AvgPool2D downsamples each channel by averaging over windows. It is
// used by the DenseNet transition layers.
type AvgPool2D struct {
	LayerName string
	K, Stride int
}

// NewAvgPool2D constructs an average-pooling layer with a k×k window.
func NewAvgPool2D(name string, k, stride int) *AvgPool2D {
	return &AvgPool2D{LayerName: name, K: k, Stride: stride}
}

// Name implements Layer.
func (l *AvgPool2D) Name() string { return l.LayerName }

// Params implements Layer.
func (l *AvgPool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *AvgPool2D) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects (C,H,W) input, got %v", l.LayerName, in))
	}
	return []int{
		in[0],
		tensor.ConvOutSize(in[1], l.K, l.Stride, 0),
		tensor.ConvOutSize(in[2], l.K, l.Stride, 0),
	}
}

// Forward implements Layer, recording the input for Backward.
func (l *AvgPool2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer.
func (l *AvgPool2D) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	inShape := ctx.cached(l).Shape
	c, h, w := inShape[0], inShape[1], inShape[2]
	oh := tensor.ConvOutSize(h, l.K, l.Stride, 0)
	ow := tensor.ConvOutSize(w, l.K, l.Stride, 0)
	dX := tensor.New(inShape...)
	inv := 1.0 / float64(l.K*l.K)
	oi := 0
	for ch := 0; ch < c; ch++ {
		plane := dX.Data[ch*h*w : (ch+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				g := float64(grad.Data[oi] * inv)
				oi++
				for ky := 0; ky < l.K; ky++ {
					iy := oy*l.Stride + ky
					if iy >= h {
						continue
					}
					for kx := 0; kx < l.K; kx++ {
						ix := ox*l.Stride + kx
						if ix >= w {
							continue
						}
						plane[iy*w+ix] += g
					}
				}
			}
		}
	}
	return dX
}

// GlobalAvgPool averages each channel down to a single value, producing
// a flat (C) vector. DenseNet uses it ahead of the classifier head.
type GlobalAvgPool struct {
	LayerName string
}

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{LayerName: name} }

// Name implements Layer.
func (l *GlobalAvgPool) Name() string { return l.LayerName }

// Params implements Layer.
func (l *GlobalAvgPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *GlobalAvgPool) OutShape(in []int) []int {
	if len(in) != 3 {
		panic(fmt.Sprintf("nn: %s expects (C,H,W) input, got %v", l.LayerName, in))
	}
	return []int{in[0]}
}

// Forward implements Layer, recording the input for Backward.
func (l *GlobalAvgPool) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer.
func (l *GlobalAvgPool) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	inShape := ctx.cached(l).Shape
	c, h, w := inShape[0], inShape[1], inShape[2]
	dX := tensor.New(inShape...)
	inv := 1.0 / float64(h*w)
	for ch := 0; ch < c; ch++ {
		g := grad.Data[ch] * inv
		plane := dX.Data[ch*h*w : (ch+1)*h*w]
		for i := range plane {
			plane[i] = g
		}
	}
	return dX
}
