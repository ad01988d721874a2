// Package squeeze implements the feature-squeezing detector of Xu,
// Evans & Qi (NDSS 2018), the prediction-inconsistency baseline of the
// paper's Tables VII and VIII. An input is scored by the largest L1
// shift of the model's softmax output under a battery of "hard-coded"
// squeezers (bit-depth reduction, median smoothing, non-local means);
// adversarial or otherwise fragile inputs move the prediction far more
// than clean ones.
package squeeze

import (
	"fmt"
	"math"
	"sort"

	"deepvalidation/internal/nn"
	"deepvalidation/internal/tensor"
)

// Squeezer is one input-denoising transformation.
type Squeezer interface {
	// Name identifies the squeezer, e.g. "bit-1".
	Name() string
	// Apply returns the squeezed copy of img.
	Apply(img *tensor.Tensor) *tensor.Tensor
}

// BitDepth reduces each pixel to the given bit depth:
// round(x·(2^b − 1)) / (2^b − 1).
type BitDepth struct {
	Bits int
}

// Name implements Squeezer.
func (s BitDepth) Name() string { return fmt.Sprintf("bit-%d", s.Bits) }

// Apply implements Squeezer.
func (s BitDepth) Apply(img *tensor.Tensor) *tensor.Tensor {
	levels := math.Pow(2, float64(s.Bits)) - 1
	return img.Map(func(v float64) float64 {
		return math.Round(v*levels) / levels
	})
}

// Median replaces each pixel by the median of its K×K neighbourhood
// (per channel, edge-replicated) — Xu et al.'s median smoothing.
type Median struct {
	K int
}

// Name implements Squeezer.
func (s Median) Name() string { return fmt.Sprintf("median-%dx%d", s.K, s.K) }

// Apply implements Squeezer.
func (s Median) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	out := tensor.New(c, h, w)
	win := make([]float64, 0, s.K*s.K)
	// The window is anchored like SciPy's median_filter with origin at
	// the top-left for even K (Xu et al. use 2×2 on MNIST).
	off := (s.K - 1) / 2
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				win = win[:0]
				for dy := -off; dy < s.K-off; dy++ {
					for dx := -off; dx < s.K-off; dx++ {
						yy := clampInt(y+dy, 0, h-1)
						xx := clampInt(x+dx, 0, w-1)
						win = append(win, img.At(ch, yy, xx))
					}
				}
				sort.Float64s(win)
				m := len(win) / 2
				var v float64
				if len(win)%2 == 1 {
					v = win[m]
				} else {
					v = (win[m-1] + win[m]) / 2
				}
				out.Set(v, ch, y, x)
			}
		}
	}
	return out
}

// NonLocalMeans denoises each pixel as a similarity-weighted average of
// pixels in a search window, with patch-distance weights
// exp(−‖patch_p − patch_q‖²/h²). Search and Patch are window sizes
// (odd); H controls the filtering strength. This is the third squeezer
// Xu et al. deploy on color datasets.
type NonLocalMeans struct {
	Search int
	Patch  int
	H      float64
}

// Name implements Squeezer.
func (s NonLocalMeans) Name() string {
	return fmt.Sprintf("nlmeans-%d-%d-%g", s.Search, s.Patch, s.H)
}

// Apply implements Squeezer.
func (s NonLocalMeans) Apply(img *tensor.Tensor) *tensor.Tensor {
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	out := tensor.New(c, h, w)
	sr := s.Search / 2
	pr := s.Patch / 2
	h2 := s.H * s.H
	patchDist := func(ch, y0, x0, y1, x1 int) float64 {
		d := 0.0
		for dy := -pr; dy <= pr; dy++ {
			for dx := -pr; dx <= pr; dx++ {
				a := img.At(ch, clampInt(y0+dy, 0, h-1), clampInt(x0+dx, 0, w-1))
				b := img.At(ch, clampInt(y1+dy, 0, h-1), clampInt(x1+dx, 0, w-1))
				d += float64((a - b) * (a - b))
			}
		}
		return d / float64(s.Patch*s.Patch)
	}
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				num, den := 0.0, 0.0
				for dy := -sr; dy <= sr; dy++ {
					for dx := -sr; dx <= sr; dx++ {
						yy := clampInt(y+dy, 0, h-1)
						xx := clampInt(x+dx, 0, w-1)
						wgt := math.Exp(-patchDist(ch, y, x, yy, xx) / h2)
						num += float64(wgt * img.At(ch, yy, xx))
						den += wgt
					}
				}
				out.Set(num/den, ch, y, x)
			}
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Detector scores inputs by the maximum L1 distance between the
// model's softmax output on the original and on each squeezed version
// (the "joint detection" of Xu et al.).
type Detector struct {
	Squeezers []Squeezer
}

// ForGreyscale returns the configuration Xu et al. report best for
// MNIST: 1-bit depth plus 2×2 median smoothing. The paper reuses it
// ("we employ the same squeezer configurations as they suggested").
func ForGreyscale() *Detector {
	return &Detector{Squeezers: []Squeezer{
		BitDepth{Bits: 1},
		Median{K: 2},
	}}
}

// ForColor returns the configuration Xu et al. report best for
// CIFAR-10/SVHN-class data: 5-bit depth, 2×2 median smoothing, and
// non-local means. The search window is trimmed from 13 to 9 pixels to
// stay CPU-tractable; the code path and scoring are unchanged.
func ForColor() *Detector {
	return &Detector{Squeezers: []Squeezer{
		BitDepth{Bits: 5},
		Median{K: 2},
		NonLocalMeans{Search: 9, Patch: 3, H: 0.1},
	}}
}

// Score returns the anomaly score of x: max over squeezers of
// ‖f(x) − f(squeeze(x))‖₁. Higher means more anomalous.
func (d *Detector) Score(net *nn.Network, x *tensor.Tensor) float64 {
	base := net.Forward(x)
	best := 0.0
	for _, s := range d.Squeezers {
		sq := net.Forward(s.Apply(x))
		if l1 := base.Sub(sq).L1Norm(); l1 > best {
			best = l1
		}
	}
	return best
}

// ScoreBatch scores many samples.
func (d *Detector) ScoreBatch(net *nn.Network, xs []*tensor.Tensor) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = d.Score(net, x)
	}
	return out
}
