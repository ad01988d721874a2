package imgtrans

import (
	"fmt"
	"math"
	"math/rand"

	"deepvalidation/internal/tensor"
)

// GaussianBlur convolves each channel with a Gaussian kernel of the
// given standard deviation (pixels). Blur models defocus and motion —
// the weather/optics corner cases DeepTest synthesizes — and extends
// the paper's transformation set (Section III-A notes the set cannot
// be exhaustive).
type GaussianBlur struct {
	Sigma float64
}

// Name implements Transform.
func (t GaussianBlur) Name() string { return "blur" }

// Describe implements Transform.
func (t GaussianBlur) Describe() string { return fmt.Sprintf("blur(σ=%.2f)", t.Sigma) }

// Apply implements Transform.
func (t GaussianBlur) Apply(img *tensor.Tensor) *tensor.Tensor {
	// !(σ > 0) also catches NaN. A σ so small that 2σ² underflows to
	// zero would poison the kernel with exp(-0/0) = NaN; its true kernel
	// is a delta, so treat it as the identity it effectively is.
	if !(t.Sigma > 0) || 2*t.Sigma*t.Sigma == 0 {
		return img.Clone()
	}
	radius := int(math.Ceil(3 * t.Sigma))
	kernel := make([]float64, 2*radius+1)
	sum := 0.0
	for i := range kernel {
		d := float64(i - radius)
		kernel[i] = math.Exp(-d * d / (2 * t.Sigma * t.Sigma))
		sum += kernel[i]
	}
	for i := range kernel {
		kernel[i] /= sum
	}

	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	tmp := tensor.New(c, h, w)
	out := tensor.New(c, h, w)
	// Separable convolution with edge replication: horizontal pass...
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				s := 0.0
				for k, kv := range kernel {
					xx := clampIdx(x+k-radius, w)
					s += float64(kv * img.At(ch, y, xx))
				}
				tmp.Set(s, ch, y, x)
			}
		}
	}
	// ...then vertical.
	for ch := 0; ch < c; ch++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				s := 0.0
				for k, kv := range kernel {
					yy := clampIdx(y+k-radius, h)
					s += float64(kv * tmp.At(ch, yy, x))
				}
				out.Set(s, ch, y, x)
			}
		}
	}
	return out
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// AdditiveNoise perturbs every pixel with N(0, Sigma²) noise from a
// fixed seed, modelling sensor noise deterministically so corpora stay
// reproducible.
type AdditiveNoise struct {
	Sigma float64
	Seed  int64
}

// Name implements Transform.
func (t AdditiveNoise) Name() string { return "noise" }

// Describe implements Transform.
func (t AdditiveNoise) Describe() string { return fmt.Sprintf("noise(σ=%.2f)", t.Sigma) }

// Apply implements Transform.
func (t AdditiveNoise) Apply(img *tensor.Tensor) *tensor.Tensor {
	rng := rand.New(rand.NewSource(t.Seed))
	out := img.Clone()
	for i := range out.Data {
		out.Data[i] += float64(t.Sigma * rng.NormFloat64())
	}
	return out.ClampInPlace(0, 1)
}

// Occlusion blanks a square patch of the image (value Fill), modelling
// a smudged lens or an object blocking the camera.
type Occlusion struct {
	// X, Y, Size locate the patch in pixels.
	X, Y, Size int
	// Fill is the patch intensity.
	Fill float64
}

// Name implements Transform.
func (t Occlusion) Name() string { return "occlusion" }

// Describe implements Transform.
func (t Occlusion) Describe() string {
	return fmt.Sprintf("occlusion(%dx%d at %d,%d)", t.Size, t.Size, t.X, t.Y)
}

// Apply implements Transform.
func (t Occlusion) Apply(img *tensor.Tensor) *tensor.Tensor {
	out := img.Clone()
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	for ch := 0; ch < c; ch++ {
		for y := t.Y; y < t.Y+t.Size && y < h; y++ {
			if y < 0 {
				continue
			}
			for x := t.X; x < t.X+t.Size && x < w; x++ {
				if x < 0 {
					continue
				}
				out.Set(t.Fill, ch, y, x)
			}
		}
	}
	return out
}

// Interface compliance checks.
var (
	_ Transform = GaussianBlur{}
	_ Transform = AdditiveNoise{}
	_ Transform = Occlusion{}
)
