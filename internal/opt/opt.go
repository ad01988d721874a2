// Package opt provides the optimizer the paper trains its classifiers
// with (Adadelta, Section IV-A). The Carlini–Wagner attacks run their
// own Adam state inside internal/attack.
//
// The optimizer keeps per-parameter state keyed by the parameter's
// stable name, so it satisfies nn.Optimizer without opt depending on nn.
package opt

import (
	"fmt"
	"math"

	"deepvalidation/internal/tensor"
)

// Adadelta implements Zeiler's adaptive learning-rate method — the
// optimizer the paper trains with ("an Adadelta optimizer, with an
// initial learning rate of 1.0 and a decay factor of 0.95").
type Adadelta struct {
	LR    float64
	Rho   float64
	Eps   float64
	accG  map[string]*tensor.Tensor // running average of squared gradients
	accDX map[string]*tensor.Tensor // running average of squared updates
}

// NewAdadelta returns an Adadelta optimizer; the paper's configuration
// is NewAdadelta(1.0, 0.95).
func NewAdadelta(lr, rho float64) *Adadelta {
	return &Adadelta{
		LR:    lr,
		Rho:   rho,
		Eps:   1e-6,
		accG:  make(map[string]*tensor.Tensor),
		accDX: make(map[string]*tensor.Tensor),
	}
}

// Step implements nn.Optimizer.
func (o *Adadelta) Step(name string, value, grad *tensor.Tensor) {
	ag, ok := o.accG[name]
	if !ok {
		ag = tensor.New(grad.Shape...)
		o.accG[name] = ag
	}
	ad, ok := o.accDX[name]
	if !ok {
		ad = tensor.New(grad.Shape...)
		o.accDX[name] = ad
	}
	for i, g := range grad.Data {
		ag.Data[i] = float64(o.Rho*ag.Data[i]) + float64((1-o.Rho)*g*g)
		dx := -math.Sqrt(ad.Data[i]+o.Eps) / math.Sqrt(ag.Data[i]+o.Eps) * g
		ad.Data[i] = float64(o.Rho*ad.Data[i]) + float64((1-o.Rho)*dx*dx)
		value.Data[i] += float64(o.LR * dx)
	}
}

// String aids experiment logging.
func (o *Adadelta) String() string { return fmt.Sprintf("Adadelta(lr=%g, rho=%g)", o.LR, o.Rho) }
