package nn

import (
	"fmt"
	"math/rand"

	"deepvalidation/internal/tensor"
)

// Conv2D is a 2-D convolution over (C,H,W) inputs with symmetric zero
// padding, implemented as im2col followed by a matrix multiply.
type Conv2D struct {
	LayerName   string
	InC, OutC   int
	KH, KW      int
	Stride, Pad int
	Weight      *Param // (OutC, InC*KH*KW)
	Bias        *Param // (OutC)
}

// NewConv2D constructs a convolution layer with He-initialized weights.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC*k*k).FillHe(rng, inC*k*k)
	b := tensor.New(outC)
	return &Conv2D{
		LayerName: name,
		InC:       inC, OutC: outC,
		KH: k, KW: k,
		Stride: stride, Pad: pad,
		Weight: &Param{Name: name + ".weight", Value: w},
		Bias:   &Param{Name: name + ".bias", Value: b},
	}
}

// Name implements Layer.
func (l *Conv2D) Name() string { return l.LayerName }

// Params implements Layer.
func (l *Conv2D) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Layer.
func (l *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != l.InC {
		panic(fmt.Sprintf("nn: %s expects input (%d,H,W), got %v", l.LayerName, l.InC, in))
	}
	return []int{
		l.OutC,
		tensor.ConvOutSize(in[1], l.KH, l.Stride, l.Pad),
		tensor.ConvOutSize(in[2], l.KW, l.Stride, l.Pad),
	}
}

// Forward implements Layer: ForwardInfer on the context's arena,
// recording the input for Backward.
func (l *Conv2D) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer. It rebuilds the im2col columns of the
// recorded input in an arena slot.
func (l *Conv2D) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	x := ctx.cached(l)
	area := grad.Len() / l.OutC
	g2 := grad.Reshape(l.OutC, area)
	cols := ctx.sc.tensor2(skey{l, 0}, l.InC*l.KH*l.KW, area)
	tensor.Im2ColInto(cols, x, l.KH, l.KW, l.Stride, l.Pad)

	// dW = g2 × colsᵀ ; db = row sums of g2.
	dW := tensor.MatMulTransB(g2, cols)
	ctx.AddGrad(l.Weight, dW)
	db := tensor.New(l.OutC)
	for f := 0; f < l.OutC; f++ {
		s := 0.0
		for _, v := range g2.Data[f*area : (f+1)*area] {
			s += v
		}
		db.Data[f] = s
	}
	ctx.AddGrad(l.Bias, db)

	// dX via cols gradient scattered back through Col2Im.
	dCols := tensor.MatMulTransA(l.Weight.Value, g2)
	return tensor.Col2Im(dCols, x.Shape[0], x.Shape[1], x.Shape[2], l.KH, l.KW, l.Stride, l.Pad)
}
