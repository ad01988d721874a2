package nn

import (
	"fmt"
	"math"

	"deepvalidation/internal/tensor"
)

// BatchNorm normalizes each channel of a (C,H,W) activation with
// *running* statistics and applies a learned affine transform.
//
// This is the frozen-statistics variant of batch normalization: the
// forward pass always uses the running mean/variance, gradients treat
// them as constants, and the statistics themselves are refreshed by an
// explicit single-threaded calibration pass (Network.Calibrate) between
// epochs. That choice keeps per-sample processing free of cross-sample
// coupling, so training parallelizes across goroutines and inference is
// bitwise deterministic — which Deep Validation's reference
// distributions depend on.
type BatchNorm struct {
	LayerName string
	C         int
	Gamma     *Param         // (C) scale
	Beta      *Param         // (C) shift
	RunMean   *tensor.Tensor // (C) running mean, refreshed by Calibrate
	RunVar    *tensor.Tensor // (C) running variance, refreshed by Calibrate
	Momentum  float64
	Eps       float64
}

// NewBatchNorm constructs a batch-normalization layer over c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	return &BatchNorm{
		LayerName: name,
		C:         c,
		Gamma:     &Param{Name: name + ".gamma", Value: tensor.New(c).Fill(1)},
		Beta:      &Param{Name: name + ".beta", Value: tensor.New(c)},
		RunMean:   tensor.New(c),
		RunVar:    tensor.New(c).Fill(1),
		Momentum:  0.9,
		Eps:       1e-5,
	}
}

// Name implements Layer.
func (l *BatchNorm) Name() string { return l.LayerName }

// Params implements Layer.
func (l *BatchNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// OutShape implements Layer.
func (l *BatchNorm) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != l.C {
		panic(fmt.Sprintf("nn: %s expects input (%d,H,W), got %v", l.LayerName, l.C, in))
	}
	return append([]int(nil), in...)
}

// Forward implements Layer: in a calibration context it first folds x
// into the running statistics, then runs ForwardInfer on the context's
// arena, recording the input for Backward.
func (l *BatchNorm) Forward(x *tensor.Tensor, ctx *Context) *tensor.Tensor {
	if x.Rank() != 3 || x.Shape[0] != l.C {
		panic(fmt.Sprintf("nn: %s expects input (%d,H,W), got %v", l.LayerName, l.C, x.Shape))
	}
	if ctx.Calibrating() {
		l.UpdateStats(x)
	}
	return ctx.record(l, x, l.ForwardInfer(x, ctx.sc))
}

// Backward implements Layer. It recomputes x̂ = (x−μ)/σ from the
// recorded input with ForwardInfer's arithmetic.
func (l *BatchNorm) Backward(grad *tensor.Tensor, ctx *Context) *tensor.Tensor {
	x := ctx.cached(l)
	area := grad.Len() / l.C
	dGamma := tensor.New(l.C)
	dBeta := tensor.New(l.C)
	dX := tensor.New(grad.Shape...)
	for ch := 0; ch < l.C; ch++ {
		mean := l.RunMean.Data[ch]
		invStd := 1 / math.Sqrt(l.RunVar.Data[ch]+l.Eps)
		g := l.Gamma.Value.Data[ch]
		gs := grad.Data[ch*area : (ch+1)*area]
		xs := x.Data[ch*area : (ch+1)*area]
		ds := dX.Data[ch*area : (ch+1)*area]
		sg, sb := 0.0, 0.0
		for i, gv := range gs {
			xh := (xs[i] - mean) * invStd
			sg += float64(gv * xh)
			sb += gv
			ds[i] = gv * g * invStd
		}
		dGamma.Data[ch] = sg
		dBeta.Data[ch] = sb
	}
	ctx.AddGrad(l.Gamma, dGamma)
	ctx.AddGrad(l.Beta, dBeta)
	return dX
}

// UpdateStats folds one sample's per-channel statistics into the running
// mean and variance with the layer's momentum. It must only be called
// from a single goroutine (Network.Calibrate guarantees this).
func (l *BatchNorm) UpdateStats(x *tensor.Tensor) {
	area := x.Len() / l.C
	m := l.Momentum
	for ch := 0; ch < l.C; ch++ {
		in := x.Data[ch*area : (ch+1)*area]
		mean := 0.0
		for _, v := range in {
			mean += v
		}
		mean /= float64(area)
		variance := 0.0
		for _, v := range in {
			variance += float64((v - mean) * (v - mean))
		}
		variance /= float64(area)
		l.RunMean.Data[ch] = float64(m*l.RunMean.Data[ch]) + float64((1-m)*mean)
		l.RunVar.Data[ch] = float64(m*l.RunVar.Data[ch]) + float64((1-m)*variance)
	}
}
