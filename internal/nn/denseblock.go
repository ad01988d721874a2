package nn

import (
	"fmt"
	"math/rand"

	"deepvalidation/internal/tensor"
)

// DenseBlock is a densely connected block in the DenseNet style (Huang
// et al., CVPR 2017): each internal convolution sees the channel
// concatenation of the block input and every earlier convolution's
// output, and the block output is the full concatenation.
//
// Paper Section IV-C leans on exactly this property: "thanks to the
// dense inter-connections between layers ... errors [that] happen in
// the early layers can also smoothly propagate to the latter ones",
// which justifies validating only the rear layers of the CIFAR-10
// model. The block is a single validation tap.
type DenseBlock struct {
	LayerName string
	InC       int
	Growth    int
	NConv     int
	Norms     []*BatchNorm
	Convs     []*Conv2D
}

// NewDenseBlock constructs a dense block with nConv BN→ReLU→Conv3×3
// sub-layers of the given growth rate.
func NewDenseBlock(name string, inC, growth, nConv int, rng *rand.Rand) *DenseBlock {
	b := &DenseBlock{LayerName: name, InC: inC, Growth: growth, NConv: nConv}
	for i := 0; i < nConv; i++ {
		c := inC + i*growth
		b.Norms = append(b.Norms, NewBatchNorm(fmt.Sprintf("%s.bn%d", name, i), c))
		b.Convs = append(b.Convs, NewConv2D(fmt.Sprintf("%s.conv%d", name, i), c, growth, 3, 1, 1, rng))
	}
	return b
}

// Name implements Layer.
func (l *DenseBlock) Name() string { return l.LayerName }

// Params implements Layer.
func (l *DenseBlock) Params() []*Param {
	var ps []*Param
	for i := range l.Convs {
		ps = append(ps, l.Norms[i].Params()...)
		ps = append(ps, l.Convs[i].Params()...)
	}
	return ps
}

// OutC returns the number of output channels of the block.
func (l *DenseBlock) OutC() int { return l.InC + l.NConv*l.Growth }

// OutShape implements Layer.
func (l *DenseBlock) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != l.InC {
		panic(fmt.Sprintf("nn: %s expects input (%d,H,W), got %v", l.LayerName, l.InC, in))
	}
	return []int{l.OutC(), in[1], in[2]}
}

// ForwardInfer implements Layer.
func (l *DenseBlock) ForwardInfer(x *tensor.Tensor, sc *Scratch) *tensor.Tensor {
	return l.forward(x, sc, nil)
}

// Forward implements Layer: the block's forward body on the context's
// arena, with every sub-layer running its own Forward so it records
// what its Backward needs (and BatchNorm calibrates).
func (l *DenseBlock) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	return ctx.record(l, x, l.forward(x, ctx.sc, ctx))
}

// forward is the block's one forward body. The concatenation is built
// in place in one arena buffer: sub-layer i reads the prefix holding
// the block input and the outputs of sub-layers 0..i-1, and its output
// is copied in after that prefix. With ctx nil the sub-layers run
// ForwardInfer on sc; otherwise they run Forward on ctx, whose arena is
// sc.
func (l *DenseBlock) forward(x *tensor.Tensor, sc *Scratch, ctx *Context) *tensor.Tensor {
	step := func(sub Layer, x *tensor.Tensor) *tensor.Tensor {
		if ctx == nil {
			return sub.ForwardInfer(x, sc)
		}
		return sub.Forward(x, ctx)
	}
	h, w := x.Shape[1], x.Shape[2]
	area := h * w
	cat := sc.tensor3(skey{l, 0}, l.OutC(), h, w)
	copy(cat.Data[:l.InC*area], x.Data)
	for i := range l.Convs {
		prefixC := l.InC + i*l.Growth
		prefix := sc.viewOf3(skey{l, 1 + i}, cat.Data[:prefixC*area], prefixC, h, w)
		hb := step(l.Norms[i], prefix)
		// The ReLU buffer lives in the tens map under the same
		// (block, 1+i) key the prefix view uses in the views map — the
		// maps are disjoint, and keying by the block pointer avoids
		// boxing a per-call interface value (which would allocate).
		hr := sc.like(skey{l, 1 + i}, hb)
		reluInto(hr.Data, hb.Data)
		out := step(l.Convs[i], hr)
		copy(cat.Data[prefixC*area:(prefixC+l.Growth)*area], out.Data)
	}
	return cat
}

// Backward implements Layer. Sub-layer i's ReLU mask comes from the
// input conv i recorded, which is that ReLU's output.
func (l *DenseBlock) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	ctx.cached(l) // panics unless Forward ran
	h, w := grad.Shape[1], grad.Shape[2]
	area := h * w

	// acc holds the gradient with respect to the final concatenation
	// [x, out_0, ..., out_{n-1}]; peeling sub-layers from the back
	// accumulates their input gradients into the prefix.
	acc := grad.Clone()
	for i := l.NConv - 1; i >= 0; i-- {
		prefixC := l.InC + i*l.Growth
		gOut := tensor.From(acc.Data[prefixC*area:(prefixC+l.Growth)*area], l.Growth, h, w)
		g := l.Convs[i].Backward(gOut, ctx)
		g = reluBackward(g, ctx.cached(l.Convs[i]))
		g = l.Norms[i].Backward(g, ctx)
		prefix := tensor.From(acc.Data[:prefixC*area], prefixC, h, w)
		prefix.AddInPlace(g)
		acc = tensor.From(acc.Data[:prefixC*area], prefixC, h, w)
	}
	return acc
}

// NewTransition constructs the DenseNet between-block unit — BN → ReLU
// → 1×1 Conv (channel compression) → 2×2 average pooling — as a single
// composite validation tap.
func NewTransition(name string, inC, outC int, rng *rand.Rand) *Seq {
	return NewSeq(name,
		NewBatchNorm(name+".bn", inC),
		NewReLU(name+".relu"),
		NewConv2D(name+".conv", inC, outC, 1, 1, 0, rng),
		NewAvgPool2D(name+".pool", 2, 2),
	)
}
