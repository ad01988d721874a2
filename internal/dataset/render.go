// Package dataset provides deterministic, procedurally generated
// stand-ins for the paper's three corpora (MNIST, CIFAR-10, SVHN).
//
// The real datasets cannot ship with an offline, dependency-free
// module, so each generator renders images with the structural
// properties the paper leans on: Digits is clean and well-separated
// like MNIST, Objects is color with strong intra-class variation like
// CIFAR-10, and StreetDigits is deliberately noisy like SVHN ("a
// relatively 'noisy' dataset", Section IV-A). Every sample is a pure
// function of (seed, split, index), so training is reproducible and
// train/test splits never overlap.
package dataset

import (
	"math"
	"math/rand"

	"deepvalidation/internal/tensor"
)

// Canvas is a (C,H,W) image under construction with values in [0,1].
type Canvas struct {
	T       *tensor.Tensor
	C, H, W int
}

// NewCanvas returns a canvas of the given geometry filled with zeros.
func NewCanvas(c, h, w int) *Canvas {
	return &Canvas{T: tensor.New(c, h, w), C: c, H: h, W: w}
}

// FillBackground sets every pixel of channel ch to v.
func (cv *Canvas) FillBackground(color []float64) {
	for ch := 0; ch < cv.C; ch++ {
		v := color[ch%len(color)]
		plane := cv.T.Data[ch*cv.H*cv.W : (ch+1)*cv.H*cv.W]
		for i := range plane {
			plane[i] = v
		}
	}
}

// blend writes color into pixel (x,y) with weight a in [0,1],
// compositing over the existing value.
func (cv *Canvas) blend(x, y int, color []float64, a float64) {
	if x < 0 || x >= cv.W || y < 0 || y >= cv.H || a <= 0 {
		return
	}
	if a > 1 {
		a = 1
	}
	for ch := 0; ch < cv.C; ch++ {
		i := ch*cv.H*cv.W + y*cv.W + x
		c := color[ch%len(color)]
		cv.T.Data[i] = float64((1-a)*cv.T.Data[i]) + float64(a*c)
	}
}

// Disk paints a filled anti-aliased disk of radius r centered at
// (cx, cy) in canvas coordinates.
func (cv *Canvas) Disk(cx, cy, r float64, color []float64) {
	x0, x1 := int(math.Floor(cx-r-1)), int(math.Ceil(cx+r+1))
	y0, y1 := int(math.Floor(cy-r-1)), int(math.Ceil(cy+r+1))
	for y := y0; y <= y1; y++ {
		for x := x0; x <= x1; x++ {
			d := math.Hypot(float64(x)-cx, float64(y)-cy)
			cv.blend(x, y, color, r+0.5-d)
		}
	}
}

// Line paints an anti-aliased thick segment from (x0,y0) to (x1,y1).
func (cv *Canvas) Line(x0, y0, x1, y1, thickness float64, color []float64) {
	length := math.Hypot(x1-x0, y1-y0)
	steps := int(length*2) + 1
	r := thickness / 2
	for i := 0; i <= steps; i++ {
		t := float64(i) / float64(steps)
		cv.Disk(x0+float64(t*(x1-x0)), y0+float64(t*(y1-y0)), r, color)
	}
}

// Polyline draws connected thick segments through the given points
// (pairs of x, y).
func (cv *Canvas) Polyline(pts [][2]float64, thickness float64, color []float64) {
	for i := 1; i < len(pts); i++ {
		cv.Line(pts[i-1][0], pts[i-1][1], pts[i][0], pts[i][1], thickness, color)
	}
}

// FillRect paints an axis-aligned filled rectangle.
func (cv *Canvas) FillRect(x0, y0, x1, y1 float64, color []float64) {
	for y := int(math.Floor(y0)); y <= int(math.Ceil(y1)); y++ {
		for x := int(math.Floor(x0)); x <= int(math.Ceil(x1)); x++ {
			ax := overlap1D(float64(x), x0, x1) * overlap1D(float64(y), y0, y1)
			cv.blend(x, y, color, ax)
		}
	}
}

// overlap1D returns how much the unit pixel centered at p overlaps
// [lo, hi], in [0,1].
func overlap1D(p, lo, hi float64) float64 {
	a := math.Max(p-0.5, lo)
	b := math.Min(p+0.5, hi)
	if b <= a {
		return 0
	}
	return b - a
}

// FillTriangle paints a filled triangle via per-pixel half-plane tests.
func (cv *Canvas) FillTriangle(p0, p1, p2 [2]float64, color []float64) {
	minX := int(math.Floor(math.Min(p0[0], math.Min(p1[0], p2[0]))))
	maxX := int(math.Ceil(math.Max(p0[0], math.Max(p1[0], p2[0]))))
	minY := int(math.Floor(math.Min(p0[1], math.Min(p1[1], p2[1]))))
	maxY := int(math.Ceil(math.Max(p0[1], math.Max(p1[1], p2[1]))))
	edge := func(a, b, p [2]float64) float64 {
		return float64((b[0]-a[0])*(p[1]-a[1])) - float64((b[1]-a[1])*(p[0]-a[0]))
	}
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			p := [2]float64{float64(x), float64(y)}
			e0, e1, e2 := edge(p0, p1, p), edge(p1, p2, p), edge(p2, p0, p)
			inside := (e0 >= 0 && e1 >= 0 && e2 >= 0) || (e0 <= 0 && e1 <= 0 && e2 <= 0)
			if inside {
				cv.blend(x, y, color, 1)
			}
		}
	}
}

// AddNoise perturbs every pixel with independent N(0, sigma²) noise and
// clamps to [0,1].
func (cv *Canvas) AddNoise(rng *rand.Rand, sigma float64) {
	for i := range cv.T.Data {
		cv.T.Data[i] += float64(sigma * rng.NormFloat64())
	}
	cv.T.ClampInPlace(0, 1)
}

// AddTexture overlays a smooth low-frequency pattern (sum of random
// sinusoids), scaled by amp, approximating natural background clutter.
func (cv *Canvas) AddTexture(rng *rand.Rand, amp float64) {
	type wave struct{ fx, fy, ph, w float64 }
	waves := make([]wave, 3)
	for i := range waves {
		waves[i] = wave{
			fx: (float64(rng.Float64()) - 0.5) * 0.8,
			fy: (float64(rng.Float64()) - 0.5) * 0.8,
			ph: float64(float64(rng.Float64()) * 2 * math.Pi),
			w:  rng.Float64(),
		}
	}
	for ch := 0; ch < cv.C; ch++ {
		chShift := float64(float64(rng.Float64()) * 2 * math.Pi)
		for y := 0; y < cv.H; y++ {
			for x := 0; x < cv.W; x++ {
				v := 0.0
				for _, wv := range waves {
					v += float64(wv.w * math.Sin(float64(wv.fx*float64(x))+float64(wv.fy*float64(y))+wv.ph+chShift))
				}
				i := ch*cv.H*cv.W + y*cv.W + x
				cv.T.Data[i] += amp * v / 3
			}
		}
	}
	cv.T.ClampInPlace(0, 1)
}

// Finish clamps the canvas into [0,1] and returns the image tensor.
func (cv *Canvas) Finish() *tensor.Tensor {
	return cv.T.ClampInPlace(0, 1)
}
