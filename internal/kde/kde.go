// Package kde implements the kernel-density-estimation detector of
// Feinman et al. ("Detecting adversarial samples from artifacts",
// 2017), the statistical-detection baseline of the paper's Table VII:
// a Gaussian KDE is fitted per class on the penultimate-layer
// activations of the training data, and a test input is scored by the
// (negated log) density under the KDE of its predicted class — low
// density suggests the input is off the data manifold.
package kde

import (
	"fmt"
	"math"

	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// Config controls fitting.
type Config struct {
	// Bandwidth is the Gaussian kernel width; 0 selects Scott's rule
	// from the pooled training activations. (Feinman et al. tuned one
	// bandwidth per dataset.)
	Bandwidth float64
	// Layer is the tap index whose activations are modelled; a negative
	// value selects the penultimate layer (the paper's choice: "they
	// exploit only the outputs from the fully connected hidden
	// layers").
	Layer int
	// MaxPerClass caps the per-class reference points (default 200).
	MaxPerClass int
}

// DefaultConfig mirrors the deployment in the paper's comparison.
func DefaultConfig() Config { return Config{Layer: -1, MaxPerClass: 200} }

// Detector is a fitted KDE detector. Fields are exported for gob.
type Detector struct {
	Bandwidth float64
	Layer     int
	Dim       int
	// Points[k] holds the reference activations of class k.
	Points [][][]float64
}

// Fit builds per-class KDEs from correctly classified training samples.
func Fit(net *nn.Network, trainX []*tensor.Tensor, trainY []int, cfg Config) (*Detector, error) {
	if len(trainX) == 0 {
		return nil, fmt.Errorf("kde: empty training set")
	}
	if len(trainX) != len(trainY) {
		return nil, fmt.Errorf("kde: %d samples but %d labels", len(trainX), len(trainY))
	}
	layer := cfg.Layer
	if layer < 0 {
		layer = net.NumLayers() - 2
	}
	if layer >= net.NumLayers() {
		return nil, fmt.Errorf("kde: layer %d out of range", layer)
	}
	maxPer := cfg.MaxPerClass
	if maxPer <= 0 {
		maxPer = 200
	}

	// One arena from the network's list serves every pass; the kept tap
	// is copied out before the next pass overwrites it.
	sc := net.GetScratch()
	defer net.PutScratch(sc)
	points := make([][][]float64, net.Classes)
	var dim int
	for i, x := range trainX {
		probs, taps := net.ForwardTappedScratch(x, sc)
		if probs.ArgMax() != trainY[i] {
			continue
		}
		f := taps[layer]
		if dim == 0 {
			dim = f.Len()
		}
		if len(points[trainY[i]]) >= maxPer {
			continue
		}
		v := make([]float64, f.Len())
		copy(v, f.Data)
		points[trainY[i]] = append(points[trainY[i]], v)
	}
	for k, pts := range points {
		if len(pts) == 0 {
			return nil, fmt.Errorf("kde: class %d has no correctly classified training samples", k)
		}
	}

	bw := cfg.Bandwidth
	if bw <= 0 {
		bw = scottBandwidth(points, dim)
	}
	return &Detector{Bandwidth: bw, Layer: layer, Dim: dim, Points: points}, nil
}

// scottBandwidth applies Scott's rule h = σ·n^(−1/(d+4)) with σ the
// pooled per-coordinate standard deviation.
func scottBandwidth(points [][][]float64, dim int) float64 {
	n := 0
	mean := 0.0
	cnt := 0
	for _, cls := range points {
		n += len(cls)
		for _, p := range cls {
			for _, v := range p {
				mean += v
				cnt++
			}
		}
	}
	mean /= float64(cnt)
	variance := 0.0
	for _, cls := range points {
		for _, p := range cls {
			for _, v := range p {
				variance += float64((v - mean) * (v - mean))
			}
		}
	}
	variance /= float64(cnt)
	sigma := math.Sqrt(variance)
	if sigma < 1e-6 {
		sigma = 1e-6
	}
	return sigma * math.Pow(float64(n), -1/float64(dim+4))
}

// Score returns the anomaly score of x: the negated log kernel density
// of its penultimate activation under the predicted class's KDE.
// Higher means more anomalous.
func (d *Detector) Score(net *nn.Network, x *tensor.Tensor) float64 {
	sc := net.GetScratch()
	defer net.PutScratch(sc)
	return d.score(net, x, sc)
}

// ScoreBatch scores many samples, sharing one arena from the network's
// list across the batch.
func (d *Detector) ScoreBatch(net *nn.Network, xs []*tensor.Tensor) []float64 {
	sc := net.GetScratch()
	defer net.PutScratch(sc)
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = d.score(net, x, sc)
	}
	return out
}

// score is Score running its forward pass on sc.
func (d *Detector) score(net *nn.Network, x *tensor.Tensor, sc *nn.Scratch) float64 {
	probs, taps := net.ForwardTappedScratch(x, sc)
	return -d.logDensity(taps[d.Layer].Data, probs.ArgMax())
}

// logDensity computes log(1/n Σ exp(−‖x−xᵢ‖²/(2h²))) via logsumexp,
// dropping the normalization constant common to all scores.
func (d *Detector) logDensity(x []float64, class int) float64 {
	pts := d.Points[class]
	inv := 1 / (2 * d.Bandwidth * d.Bandwidth)
	maxE := math.Inf(-1)
	es := make([]float64, len(pts))
	for i, p := range pts {
		s := 0.0
		for j, v := range x {
			dd := v - p[j]
			s += float64(dd * dd)
		}
		e := -s * inv
		es[i] = e
		if e > maxE {
			maxE = e
		}
	}
	sum := 0.0
	for _, e := range es {
		sum += math.Exp(e - maxE)
	}
	return maxE + math.Log(sum) - math.Log(float64(len(pts)))
}
