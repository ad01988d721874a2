package tensor

import (
	"math"
	"math/rand"
)

// FillUniform sets every element to an independent draw from
// U[lo, hi) using rng, and returns t.
func (t *Tensor) FillUniform(rng *rand.Rand, lo, hi float64) *Tensor {
	span := hi - lo
	for i := range t.Data {
		t.Data[i] = lo + float64(span*rng.Float64())
	}
	return t
}

// FillNormal sets every element to an independent draw from
// N(mean, stddev²) using rng, and returns t.
func (t *Tensor) FillNormal(rng *rand.Rand, mean, stddev float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = mean + float64(stddev*rng.NormFloat64())
	}
	return t
}

// FillGlorot initializes t with the Glorot/Xavier uniform scheme for a
// layer with the given fan-in and fan-out, and returns t. This is the
// standard initialization for the tanh/softmax layers of the paper's
// CNNs.
func (t *Tensor) FillGlorot(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return t.FillUniform(rng, -limit, limit)
}

// FillHe initializes t with the He normal scheme for ReLU layers with
// the given fan-in, and returns t.
func (t *Tensor) FillHe(rng *rand.Rand, fanIn int) *Tensor {
	return t.FillNormal(rng, 0, math.Sqrt(2.0/float64(fanIn)))
}
