package core

import (
	"fmt"
	"math"

	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// FitNormalization estimates each validated layer's discrepancy mean
// and standard deviation on held-out *clean* data and stores them in
// the validator. NormalizedJoint then z-scores layers before summing,
// so no single layer's scale dominates Eq. 3 — the deployable version
// of the weighting improvement Section IV-D3 suggests (it needs no
// anomalous data, preserving the framework's scenario-agnosticism).
func (v *Validator) FitNormalization(net *nn.Network, clean []*tensor.Tensor) error {
	if len(clean) < 2 {
		return fmt.Errorf("core: normalization needs at least 2 clean samples, got %d", len(clean))
	}
	n := len(v.LayerIdx)
	mean := make([]float64, n)
	m2 := make([]float64, n)
	for _, x := range clean {
		r := v.Score(net, x)
		for p, d := range r.Layer {
			mean[p] += d
			m2[p] += float64(d * d)
		}
	}
	cnt := float64(len(clean))
	std := make([]float64, n)
	for p := range mean {
		mean[p] /= cnt
		variance := m2[p]/cnt - float64(mean[p]*mean[p])
		if variance < 1e-12 {
			variance = 1e-12
		}
		std[p] = math.Sqrt(variance)
	}
	v.NormMean = mean
	v.NormStd = std
	return nil
}

// HasNormalization reports whether FitNormalization has run.
func (v *Validator) HasNormalization() bool {
	return len(v.NormMean) == len(v.LayerIdx) && len(v.NormStd) == len(v.LayerIdx) && len(v.NormMean) > 0
}

// NormalizedJoint returns Σ_i (d_i − μ_i)/σ_i for a scored result,
// using the statistics fitted by FitNormalization. It panics if
// normalization was never fitted (a programmer error).
func (v *Validator) NormalizedJoint(r Result) float64 {
	if !v.HasNormalization() {
		panic("core: NormalizedJoint called before FitNormalization")
	}
	if len(r.Layer) != len(v.LayerIdx) {
		panic(fmt.Sprintf("core: result has %d layers, validator %d", len(r.Layer), len(v.LayerIdx)))
	}
	s := 0.0
	for p, d := range r.Layer {
		s += (d - v.NormMean[p]) / v.NormStd[p]
	}
	return s
}

// NormalizedJointScores maps NormalizedJoint over a batch of results.
func (v *Validator) NormalizedJointScores(rs []Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = v.NormalizedJoint(r)
	}
	return out
}
